package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"dmamem/internal/metrics"
)

// BenchmarkGenerateTable2Cold generates the four Table 2 traces at the
// golden sizes (4 ms, 2 ms for the -Db traces) from a fresh suite and
// a fresh seed per iteration: the generation half of a cold daemon
// job. With -benchmem it shows what the generators allocate per trace
// set, dataset-sized tables included.
func BenchmarkGenerateTable2Cold(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := goldenSuite()
		s.Seed = uint64(i + 1)
		for _, name := range workloadNames {
			if _, err := s.workload(name); err != nil {
				b.Fatal(err)
			}
		}
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
