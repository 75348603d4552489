package tracelog

// Bridges for the external tests, whose seeds need packages (scenario) that
// an internal test of tracelog cannot import without a cycle.
var (
	DecodeMetadata       = decodeMetadata
	RefDecodeMetadata    = refDecodeMetadata
	EncodeMetadataChunks = encodeMetadataChunks
)
