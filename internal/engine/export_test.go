package engine

// SeqBatchSize is Sequential's batch size, for the tests that place events
// at the edges of a batch.
const SeqBatchSize = seqBatchSize
