package ingest

// SlotRetryAfter exposes the slot-timeout backoff hint to the external tests.
const SlotRetryAfter = slotRetryAfter
