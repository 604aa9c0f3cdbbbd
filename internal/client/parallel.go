package client

import (
	"io"
	"sync"
)

// parallelMinRows is the row count below which chunked work stays on the
// calling goroutine. A row's share encoding costs Degree HMACs per queryable
// column (12 for the benchmark's four-column row at degree 3; encodeRow
// takes ≈6–7 µs a row), so 256 rows are over a millisecond of work, far
// above a goroutine start-up; the value itself is a guess that no workload
// measures.
const parallelMinRows = 256

// lockedReader serializes a caller-supplied randomness source so parallel
// share encoding can draw polynomial coefficients from many goroutines.
type lockedReader struct {
	mu sync.Mutex
	r  io.Reader
}

func (l *lockedReader) Read(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.r.Read(p)
}

// parallelChunks runs fn over [0, n) split into at most `workers` contiguous
// chunks, one goroutine per chunk, and returns the first error. Each worker
// owns one contiguous span, so per-worker scratch buffers live for the whole
// span and writes to distinct result indices never contend. Small inputs and
// workers == 1 run inline.
func parallelChunks(workers, n int, fn func(start, end int) error) error {
	if workers > n/parallelMinRows {
		workers = n / parallelMinRows
	}
	if workers <= 1 {
		if n == 0 {
			return nil
		}
		return fn(0, n)
	}
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	chunk := (n + workers - 1) / workers
	for start := 0; start < n; start += chunk {
		end := start + chunk
		if end > n {
			end = n
		}
		wg.Add(1)
		go func(start, end int) {
			defer wg.Done()
			if err := fn(start, end); err != nil {
				errOnce.Do(func() { firstErr = err })
			}
		}(start, end)
	}
	wg.Wait()
	return firstErr
}
