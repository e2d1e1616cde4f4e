package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"dmamem"
	"dmamem/internal/experiments"
)

// goldenDir holds the committed reports the gate reproduces, relative
// to the checkout root.
const goldenDir = "internal/experiments/testdata/golden"

// checkGoldens reproduces the golden reports of one Table 2 workload
// through experiments.RunReport and CanonicalJSON and requires byte
// equality with the committed files. The goldens pin the model against
// its own earlier output only; nothing here compares it with hardware.
func checkGoldens(o *options, l *ledger, workload string, schemes []string, workers int) error {
	for _, scheme := range schemes {
		want, err := os.ReadFile(goldenPath(o, workload, scheme))
		if err != nil {
			return err
		}
		got, err := reportJSON(experiments.ReportSpec{Workload: workload, Scheme: scheme, Workers: workers})
		if err != nil {
			return err
		}
		l.check(bytes.Equal(got, want), "golden %s/%s at %d workers differs from %s",
			workload, scheme, workers, goldenPath(o, workload, scheme))
	}
	return nil
}

func goldenPath(o *options, workload, scheme string) string {
	return filepath.Join(o.root, goldenDir, strings.ToLower(workload)+"_"+scheme+".json")
}

// reportJSON runs one report spec and returns its canonical bytes:
// what the daemon answers for the same spec.
func reportJSON(sp experiments.ReportSpec) ([]byte, error) {
	rep, err := experiments.RunReport(context.Background(), sp)
	if err != nil {
		return nil, err
	}
	return experiments.CanonicalJSON(rep)
}

// digest fingerprints a report for the pass-to-pass identity check.
// The Go-syntax form prints every field exactly, NaN included, and
// ignores the fields' String methods, which round.
func digest(r *dmamem.Report) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%#v", *r)))
	return hex.EncodeToString(sum[:])
}

func digests(reps []*dmamem.Report) []string {
	out := make([]string, len(reps))
	for i, r := range reps {
		out[i] = digest(r)
	}
	return out
}

func sameDigests(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// printOutcome writes the simulated result of one pass: energy, uf and
// savings against the pass's baseline (its first report).
func printOutcome(o *options, reps []*dmamem.Report) {
	var b strings.Builder
	base := reps[0].TotalEnergy
	for i, r := range reps {
		fmt.Fprintf(&b, " %s %.4f mJ uf=%.3f", r.Scheme, 1e3*r.TotalEnergy, r.UtilizationFactor)
		if i > 0 && base > 0 {
			fmt.Fprintf(&b, " savings=%.1f%%", 100*(1-r.TotalEnergy/base))
		}
		b.WriteString(";")
	}
	fmt.Fprintf(o.info, "# simulated outcome (model checked only against its own goldens, not against hardware):%s\n", b.String())
}
