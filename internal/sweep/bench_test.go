package sweep

import (
	"fmt"
	"testing"
)

// benchmarkEngine measures the engine on CPU-bound synthetic jobs. On a
// multi-core machine the parallel variants should approach linear
// speedup; on a single core they degenerate to sequential plus a small
// coordination cost.
func benchmarkEngine(b *testing.B, workers int) {
	jobs := make([]Job, 16)
	for i := range jobs {
		jobs[i] = spinJob(20000)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(Config{Name: "bench", Workers: workers}, jobs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngine(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) { benchmarkEngine(b, workers) })
	}
}
