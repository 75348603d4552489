package tracelog

import (
	"strings"
	"testing"

	"repro/internal/trace"
)

// TestPayloadCacheShares pins the cross-session dedupe: byte-identical
// metadata payloads decode to the very same shared fragment, so N sessions
// from one instrumented binary hold one table copy, not N.
func TestPayloadCacheShares(t *testing.T) {
	md := &Metadata{
		Stacks: map[trace.StackID][]trace.Frame{
			1: {{Fn: "proxy_loop", File: "proxy.cpp", Line: 88}},
		},
		Blocks: map[trace.BlockID]trace.Block{
			2: {ID: 2, Base: 0x2000, Size: 32, Thread: 1, Stack: 1, Tag: "obj:Dialog"},
		},
	}
	chunks := encodeMetadataChunks(md)
	if len(chunks) != 1 {
		t.Fatalf("sample encodes to %d chunks, want 1", len(chunks))
	}
	a, err := decodeMetadataShared(chunks[0])
	if err != nil {
		t.Fatal(err)
	}
	// A fresh byte copy of the payload (a second session's read buffer).
	b, err := decodeMetadataShared(append([]byte(nil), chunks[0]...))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("identical payloads decoded to distinct fragments; cache missed")
	}
	if !a.sendable {
		t.Error("wire-decoded fragment not marked sendable")
	}

	// Two resolvers over the shared fragment must not copy it either.
	ra, rb := NewTableResolver(), NewTableResolver()
	ra.AddMetadata(a)
	rb.AddMetadata(b)
	if ra.frags[0] != rb.frags[0] {
		t.Error("resolvers copied the shared fragment")
	}
	if got := ra.BlockInfo(2); got == nil || got.Tag != "obj:Dialog" {
		t.Errorf("BlockInfo(2) = %+v", got)
	}
}

// TestPayloadCacheBounded is the regression test for the metadata cache
// leak: a client sending ever-new payloads grew the cache for good. Distinct
// payloads worth three times maxPayloadCache go through the cache, which
// must then hold at most maxPayloadCache bytes of them and still hit.
func TestPayloadCacheBounded(t *testing.T) {
	tag := strings.Repeat("t", 20<<10)
	var payload []byte
	for i := 0; i*len(tag) < 3*maxPayloadCache; i++ {
		md := &Metadata{Blocks: map[trace.BlockID]trace.Block{
			trace.BlockID(i + 1): {ID: trace.BlockID(i + 1), Size: 8, Tag: tag},
		}}
		payload = encodeMetadataChunks(md)[0]
		if _, err := decodeMetadataShared(payload); err != nil {
			t.Fatal(err)
		}
	}
	payloadCache.mu.Lock()
	held, entries := payloadCache.bytes, len(payloadCache.m)
	payloadCache.mu.Unlock()
	if held > maxPayloadCache || entries*len(tag) > maxPayloadCache {
		t.Errorf("cache holds %d payloads, %d bytes; cap %d", entries, held, maxPayloadCache)
	}
	a, _ := decodeMetadataShared(payload)
	if b, _ := decodeMetadataShared(payload); a != b {
		t.Error("cache missed on the payload it just decoded")
	}
}

// TestResolverNewestFirst pins override semantics under the fragment walk: a
// later fragment's entry for an ID shadows an earlier one's.
func TestResolverNewestFirst(t *testing.T) {
	r := NewTableResolver()
	r.AddMetadata(&Metadata{Blocks: map[trace.BlockID]trace.Block{
		5: {ID: 5, Size: 8, Tag: "old"},
	}})
	r.AddMetadata(&Metadata{Blocks: map[trace.BlockID]trace.Block{
		5: {ID: 5, Size: 16, Tag: "new"},
	}})
	got := r.BlockInfo(5)
	if got == nil || got.Tag != "new" || got.Size != 16 {
		t.Errorf("BlockInfo(5) = %+v, want the later fragment's entry", got)
	}
	if s, b := r.Counts(); s != 0 || b != 1 {
		t.Errorf("Counts = %d stacks / %d blocks, want 0 / 1 (union, not sum)", s, b)
	}
}
