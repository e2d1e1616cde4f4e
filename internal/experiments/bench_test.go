package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"dmamem/internal/metrics"
)

// BenchmarkGenerateTable2Cold generates each Table 2 trace at the
// golden size (4 ms, 2 ms for the -Db traces) from a fresh suite and a
// fresh seed per iteration, one sub-benchmark per workload: the
// generation half of a cold daemon job. With -benchmem it shows what
// each generator allocates per trace, set-up included.
func BenchmarkGenerateTable2Cold(b *testing.B) {
	for _, name := range workloadNames {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s := goldenSuite()
				s.Seed = uint64(i + 1)
				if _, err := s.workload(name); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCanonicalJSON serializes a golden OLTP-St report, the
// payload every completed service job is canonicalized to before it
// is hashed and cached.
func BenchmarkCanonicalJSON(b *testing.B) {
	raw, err := os.ReadFile(filepath.Join("testdata", "golden", "oltp-st_dma-ta-pl.json"))
	if err != nil {
		b.Fatal(err)
	}
	var r metrics.Report
	if err := json.Unmarshal(raw, &r); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(raw)))
	for i := 0; i < b.N; i++ {
		if _, err := CanonicalJSON(&r); err != nil {
			b.Fatal(err)
		}
	}
}
