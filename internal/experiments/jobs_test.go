package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"dmamem/internal/sim"
)

func TestCanonicalJSONAndHash(t *testing.T) {
	type v struct {
		A int
		B string
	}
	b, err := CanonicalJSON(v{1, "x"})
	if err != nil {
		t.Fatal(err)
	}
	want := "{\n  \"A\": 1,\n  \"B\": \"x\"\n}\n"
	if string(b) != want {
		t.Errorf("CanonicalJSON = %q, want %q", b, want)
	}
	h1, err := CanonicalHash(v{1, "x"})
	if err != nil {
		t.Fatal(err)
	}
	h2, _ := CanonicalHash(v{1, "x"})
	if h1 != h2 {
		t.Errorf("equal values hash differently: %s vs %s", h1, h2)
	}
	if len(h1) != 64 {
		t.Errorf("hash %q is not hex SHA-256", h1)
	}
	if h3, _ := CanonicalHash(v{2, "x"}); h3 == h1 {
		t.Error("different values share a hash")
	}
	if _, err := CanonicalJSON(make(chan int)); err == nil {
		t.Error("CanonicalJSON serialized a channel")
	}
	if _, err := CanonicalHash(make(chan int)); err == nil {
		t.Error("CanonicalHash serialized a channel")
	}
}

func TestReportEnumerations(t *testing.T) {
	if got := ReportSchemes(); len(got) != 3 || got[0] != "baseline" {
		t.Errorf("ReportSchemes = %v", got)
	}
	names := WorkloadNames()
	if len(names) != 4 || names[0] != "OLTP-St" {
		t.Errorf("WorkloadNames = %v", names)
	}
	names[0] = "mutated"
	if WorkloadNames()[0] != "OLTP-St" {
		t.Error("WorkloadNames aliases the package slice")
	}
}

func TestReportSpecNormalizeDefaults(t *testing.T) {
	sp, err := ReportSpec{Workload: "OLTP-St"}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if sp.Scheme != "baseline" || sp.CPLimit != 0 || sp.PLGroups != 0 {
		t.Errorf("baseline defaults wrong: %+v", sp)
	}
	if sp.Suite.Duration != 4*sim.Millisecond || sp.Suite.DbDuration != 2*sim.Millisecond || sp.Suite.Seed != 1 {
		t.Errorf("suite defaults are not the golden corpus: %+v", sp.Suite)
	}

	sp, err = ReportSpec{Workload: "Synthetic-St", Scheme: "dma-ta", PLGroups: 5}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if sp.CPLimit != 0.10 || sp.PLGroups != 0 {
		t.Errorf("dma-ta defaults wrong: CPLimit %v PLGroups %d", sp.CPLimit, sp.PLGroups)
	}

	sp, err = ReportSpec{Workload: "OLTP-Db", Scheme: "dma-ta-pl"}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if sp.CPLimit != 0.10 || sp.PLGroups != 2 {
		t.Errorf("dma-ta-pl defaults wrong: CPLimit %v PLGroups %d", sp.CPLimit, sp.PLGroups)
	}

	// Normalization is canonical: a baseline spec with stray alignment
	// parameters means the same run as a bare one, so the two must hash
	// identically for the service's result cache to deduplicate them.
	bare, _ := ReportSpec{Workload: "OLTP-St"}.Normalize()
	noisy, _ := ReportSpec{Workload: "OLTP-St", Scheme: "baseline", CPLimit: 0.3, PLGroups: 7}.Normalize()
	if bare != noisy {
		t.Errorf("baseline did not canonicalize: %+v vs %+v", bare, noisy)
	}
}

func TestReportSpecNormalizeErrors(t *testing.T) {
	cases := []struct {
		name string
		sp   ReportSpec
		want string
	}{
		{"unknown workload", ReportSpec{Workload: "nope"}, "OLTP-St, Synthetic-St, OLTP-Db, Synthetic-Db"},
		{"empty workload", ReportSpec{}, "unknown workload"},
		{"unknown scheme", ReportSpec{Workload: "OLTP-St", Scheme: "turbo"}, "baseline, dma-ta, dma-ta-pl"},
		{"negative cplimit", ReportSpec{Workload: "OLTP-St", Scheme: "dma-ta", CPLimit: -0.1}, "negative CPLimit"},
		{"one pl group", ReportSpec{Workload: "OLTP-St", Scheme: "dma-ta-pl", PLGroups: 1}, "hot and a cold group"},
		{"negative pl groups", ReportSpec{Workload: "OLTP-St", Scheme: "dma-ta-pl", PLGroups: -2}, "out of range"},
		{"unknown tech", ReportSpec{Workload: "OLTP-St", Tech: "sram"}, "unknown memory technology"},
		{"negative workers", ReportSpec{Workload: "OLTP-St", Workers: -1}, "negative Workers"},
		{"negative duration", ReportSpec{Workload: "OLTP-St", Suite: SuiteSpec{Duration: -1}}, "negative trace duration"},
	}
	for _, tc := range cases {
		_, err := tc.sp.Normalize()
		if err == nil {
			t.Errorf("%s: Normalize accepted %+v", tc.name, tc.sp)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestRunReportGolden pins RunReport to the committed corpus: a
// defaulted spec canonicalizes to the exact golden bytes for its
// workload, scheme, and technology.
func TestRunReportGolden(t *testing.T) {
	cases := []struct {
		sp     ReportSpec
		golden string
	}{
		{ReportSpec{Workload: "OLTP-St"}, "oltp-st_baseline.json"},
		{ReportSpec{Workload: "Synthetic-St", Scheme: "dma-ta-pl"}, "synthetic-st_dma-ta-pl.json"},
		{ReportSpec{Workload: "Synthetic-St", Scheme: "dma-ta", Tech: "lpddr4"}, "synthetic-st_dma-ta_lpddr4.json"},
	}
	for _, tc := range cases {
		rep, err := RunReport(context.Background(), tc.sp)
		if err != nil {
			t.Fatalf("%s: %v", tc.golden, err)
		}
		got, err := CanonicalJSON(rep)
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile("testdata/golden/" + tc.golden)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: report diverged from golden (%d vs %d bytes)", tc.golden, len(got), len(want))
		}
	}
	if _, err := RunReport(context.Background(), ReportSpec{Workload: "nope"}); err == nil {
		t.Error("RunReport accepted an unknown workload")
	}
}

// TestReportSpecWorkersIsInert pins the deprecated ReportSpec.Workers
// as inert in the cache key: Normalize zeroes it, so 0 and 4 give the
// same canonical hash. TestRegistryRDRAMBitIdentical holds the report
// bytes equal over the golden corpus.
func TestReportSpecWorkersIsInert(t *testing.T) {
	var hashes []string
	for _, workers := range []int{0, 4} {
		sp, err := ReportSpec{Workload: "Synthetic-St", Scheme: "dma-ta-pl", Workers: workers}.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		h, err := CanonicalHash(sp)
		if err != nil {
			t.Fatal(err)
		}
		hashes = append(hashes, h)
	}
	if hashes[0] != hashes[1] {
		t.Errorf("Workers 4 hashes %s, Workers 0 hashes %s", hashes[1], hashes[0])
	}
}

func TestSharedWorkloadCache(t *testing.T) {
	// Swap in a fresh process cache so this test neither depends on nor
	// pollutes what other tests in the binary have generated.
	sharedSuitesMu.Lock()
	saved := sharedSuites
	sharedSuites = map[SuiteSpec]*Suite{}
	sharedSuitesMu.Unlock()
	defer func() {
		sharedSuitesMu.Lock()
		sharedSuites = saved
		sharedSuitesMu.Unlock()
	}()

	sp := SuiteSpec{Duration: sim.Millisecond, DbDuration: sim.Millisecond, Seed: 7}
	tr1, err := sharedWorkload(sp, "Synthetic-St")
	if err != nil {
		t.Fatal(err)
	}
	tr2, err := sharedWorkload(sp, "Synthetic-St")
	if err != nil {
		t.Fatal(err)
	}
	if tr1 != tr2 {
		t.Error("same spec generated its trace twice")
	}
	if _, err := sharedWorkload(sp, "no-such-workload"); err == nil {
		t.Error("sharedWorkload accepted an unknown workload")
	}

	// Past the bound, new specs bypass the cache instead of hoarding.
	for i := 0; i < 2*maxSharedSuites; i++ {
		sp := SuiteSpec{Seed: uint64(1000 + i)}
		if _, err := sharedWorkload(sp, "no-such-workload"); err == nil {
			t.Fatal("unknown workload accepted")
		}
	}
	sharedSuitesMu.Lock()
	n := len(sharedSuites)
	sharedSuitesMu.Unlock()
	if n > maxSharedSuites {
		t.Errorf("shared suite cache grew to %d, bound is %d", n, maxSharedSuites)
	}
}

func TestValidateGridCounts(t *testing.T) {
	n, err := ValidateGrid(SuiteSpec{}, GridSpec{Name: gridNoop, Points: 5})
	if err != nil || n != 5 {
		t.Errorf("noop grid: n=%d err=%v, want 5", n, err)
	}
	n, err = ValidateGrid(SuiteSpec{}, GridSpec{Name: GridFig10, Workloads: []string{"OLTP-St"}, BusBW: []float64{100e6, 200e6}, Channels: []int{1, 2}})
	if err != nil || n != 8 {
		t.Errorf("fig10 grid: n=%d err=%v, want 8 (1 workload x 2 bandwidths x 2 channels x 2 schemes)", n, err)
	}
	if _, err := ValidateGrid(SuiteSpec{}, GridSpec{Name: "bogus"}); err == nil {
		t.Error("ValidateGrid accepted an unknown grid")
	}
	if _, err := ValidateGrid(SuiteSpec{}, GridSpec{Name: GridFig10, Techs: []string{"sram"}}); err == nil {
		t.Error("ValidateGrid accepted an unknown technology")
	}
}

func TestGridRunRawNoop(t *testing.T) {
	s := NewSuiteFromSpec(SuiteSpec{})
	var labels []string
	out, err := GridRunRaw(context.Background(), s, GridSpec{Name: gridNoop, Points: 3},
		func(i int, label string) { labels = append(labels, label) })
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("got %d points, want 3", len(out))
	}
	for i, raw := range out {
		var p SweepPoint
		if err := json.Unmarshal(raw, &p); err != nil {
			t.Fatalf("point %d: %v", i, err)
		}
		if p.Workload != "noop" || p.X != float64(i) {
			t.Errorf("point %d = %+v", i, p)
		}
	}
	// The nil Runner runs points sequentially, so callbacks arrive in
	// grid order.
	if want := []string{"noop/0", "noop/1", "noop/2"}; strings.Join(labels, ",") != strings.Join(want, ",") {
		t.Errorf("onPoint labels = %v, want %v", labels, want)
	}
	if _, err := GridRunRaw(context.Background(), s, GridSpec{Name: "bogus"}, nil); err == nil {
		t.Error("GridRunRaw accepted an unknown grid")
	}
}
