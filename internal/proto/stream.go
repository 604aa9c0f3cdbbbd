package proto

// MergeRowsChunk folds one streamed RowsResponse chunk into an accumulated
// response: rows append in arrival order, Columns come from the first
// chunk that carries any, and the completeness Proof rides whichever chunk
// carries it (the last: a provider's cursor cuts it after its last batch).
// A nil dst starts from chunk.
func MergeRowsChunk(dst, chunk *RowsResponse) *RowsResponse {
	if dst == nil {
		return chunk
	}
	dst.Rows = append(dst.Rows, chunk.Rows...)
	if len(dst.Columns) == 0 && len(chunk.Columns) > 0 {
		dst.Columns = chunk.Columns
	}
	if len(chunk.Proof) > 0 {
		dst.Proof = chunk.Proof
	}
	return dst
}
