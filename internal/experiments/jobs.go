// Job-to-grid resolution and canonical serialization for the
// simulation service (internal/server/service): the pieces that turn
// a validated job submission into suite runs, and every completed
// result into a stable, hashable byte string.
//
// The golden-report corpus (testdata/golden/) is the template for the
// canonical form: json.MarshalIndent with two-space indent plus a
// trailing newline. Go's float64 encoding round-trips exactly and
// struct fields marshal in declaration order, so the same value always
// produces the same bytes — which is what lets the service key its
// result cache on a hash of the normalized job and hand every tenant
// bit-stable answers.
package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
	"sync"

	"dmamem/internal/core"
	"dmamem/internal/energy"
	"dmamem/internal/metrics"
	"dmamem/internal/sim"
	"dmamem/internal/trace"
)

// CanonicalJSON serializes v exactly like the golden-report corpus:
// MarshalIndent with two-space indent and a trailing newline. Two
// equal values always canonicalize to equal bytes.
func CanonicalJSON(v any) ([]byte, error) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// CanonicalHash returns the hex SHA-256 of v's canonical JSON — the
// cache key the service uses to deduplicate identical job
// submissions.
func CanonicalHash(v any) (string, error) {
	b, err := CanonicalJSON(v)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// ReportSchemes are the Table 2 schemes a ReportSpec accepts, in
// presentation order — the same three the golden corpus pins per
// workload.
func ReportSchemes() []string { return []string{"baseline", "dma-ta", "dma-ta-pl"} }

// WorkloadNames returns the four Table 2 workloads, in presentation
// order.
func WorkloadNames() []string { return append([]string(nil), workloadNames...) }

// ReportSpec is one canonical single-run job: a Table 2 workload under
// one scheme, returning the full metrics.Report. The zero value of
// every parameter field selects the golden-corpus default, so a spec
// built from an empty job submission reproduces the committed goldens
// byte for byte.
type ReportSpec struct {
	// Suite reconstructs the trace configuration (duration, seed). The
	// golden corpus uses 4 ms traces (2 ms for the database workloads)
	// at seed 1.
	Suite SuiteSpec
	// Workload is the Table 2 trace name ("OLTP-St", ...). Required.
	Workload string
	// Scheme is one of ReportSchemes. Empty means "baseline".
	Scheme string
	// CPLimit is the DMA-TA degradation bound. Zero selects the
	// paper's 0.10 for the alignment schemes; the baseline forces 0.
	CPLimit float64
	// PLGroups is the PL popularity group count. Zero selects the
	// paper's best setting, 2; only meaningful for "dma-ta-pl".
	PLGroups int
	// Tech is the memory-technology registry name; empty keeps the
	// RDRAM default.
	Tech string
	// Workers is ignored: every run takes the one serial engine.
	// Normalize rejects a negative value and zeroes any other, so it
	// changes neither the report nor the canonical hash.
	//
	// Deprecated: kept only so that specs which still set it compile.
	Workers int
}

// Normalize fills defaults and validates the spec. Enumeration errors
// are loud: an unknown workload, scheme or technology lists every
// legal value (the technology error comes from the energy registry,
// the same one dmamem.Simulation.Validate consults). The returned
// spec is canonical: two submissions meaning the same run normalize
// to equal values and therefore equal canonical hashes.
func (sp ReportSpec) Normalize() (ReportSpec, error) {
	found := false
	for _, w := range workloadNames {
		if sp.Workload == w {
			found = true
			break
		}
	}
	if !found {
		return sp, fmt.Errorf("experiments: unknown workload %q (want one of %s)",
			sp.Workload, strings.Join(workloadNames, ", "))
	}
	if sp.Scheme == "" {
		sp.Scheme = "baseline"
	}
	switch sp.Scheme {
	case "baseline":
		sp.CPLimit = 0
		sp.PLGroups = 0
	case "dma-ta":
		if sp.CPLimit == 0 {
			sp.CPLimit = 0.10
		}
		sp.PLGroups = 0
	case "dma-ta-pl":
		if sp.CPLimit == 0 {
			sp.CPLimit = 0.10
		}
		if sp.PLGroups == 0 {
			sp.PLGroups = 2
		}
	default:
		return sp, fmt.Errorf("experiments: unknown scheme %q (want one of %s)",
			sp.Scheme, strings.Join(ReportSchemes(), ", "))
	}
	if sp.CPLimit < 0 {
		return sp, fmt.Errorf("experiments: negative CPLimit %v", sp.CPLimit)
	}
	if sp.PLGroups < 0 || sp.PLGroups == 1 {
		return sp, fmt.Errorf("experiments: PLGroups %d out of range: a layout needs a hot and a cold group (>= 2); 0 selects the default 2", sp.PLGroups)
	}
	if _, err := energy.Lookup(sp.Tech); err != nil {
		return sp, err
	}
	if sp.Workers < 0 {
		return sp, fmt.Errorf("experiments: negative Workers %d", sp.Workers)
	}
	sp.Workers = 0
	if sp.Suite.Duration < 0 || sp.Suite.DbDuration < 0 {
		return sp, fmt.Errorf("experiments: negative trace duration %v/%v", sp.Suite.Duration, sp.Suite.DbDuration)
	}
	if sp.Suite.Duration == 0 {
		sp.Suite.Duration = 4 * sim.Millisecond
	}
	if sp.Suite.DbDuration == 0 {
		sp.Suite.DbDuration = 2 * sim.Millisecond
	}
	if sp.Suite.Seed == 0 {
		sp.Suite.Seed = 1
	}
	// A run reads one duration: DbDuration for the -Db workloads,
	// Duration for the -St ones. The other is reset to its default so
	// it cannot split the result cache.
	if strings.HasSuffix(sp.Workload, "-Db") {
		sp.Suite.Duration = 4 * sim.Millisecond
	} else {
		sp.Suite.DbDuration = 2 * sim.Millisecond
	}
	return sp, nil
}

// reportConfig builds the core configuration of a normalized spec —
// the same construction the golden corpus uses (taConfig/plConfig),
// so equal specs reproduce equal reports.
func (sp ReportSpec) reportConfig() core.Config {
	var cfg core.Config
	switch sp.Scheme {
	case "dma-ta":
		cfg = taConfig(sp.CPLimit, nil)
	case "dma-ta-pl":
		cfg = taConfig(sp.CPLimit, plConfig(sp.PLGroups))
	}
	cfg.Tech = sp.Tech
	return cfg
}

// sharedSuites caches one trace-generating Suite per SuiteSpec, so a
// service process asking for the same workload across many jobs
// generates its trace exactly once (Suite.workload is single-flight,
// so concurrent jobs share one generation too). The cache is bounded:
// past maxSharedSuites distinct specs, new specs bypass it and
// generate privately rather than hoard every trace a tenant ever
// asked for. SuiteSpec is a comparable value type, so it keys the map
// directly.
var (
	sharedSuitesMu sync.Mutex
	sharedSuites   = map[SuiteSpec]*Suite{}
)

const maxSharedSuites = 8

// sharedWorkload returns the named trace for a spec through the
// process-level suite cache.
func sharedWorkload(sp SuiteSpec, name string) (*trace.Trace, error) {
	sharedSuitesMu.Lock()
	s, ok := sharedSuites[sp]
	if !ok {
		s = NewSuiteFromSpec(sp)
		if len(sharedSuites) < maxSharedSuites {
			sharedSuites[sp] = s
		}
	}
	sharedSuitesMu.Unlock()
	return s.workload(name)
}

// RunReport normalizes and executes one report job. The metering
// window is the golden convention (trace duration plus 2 ms), so a
// default spec over a golden-suite SuiteSpec returns the committed
// golden report for its workload and scheme bit for bit.
func RunReport(ctx context.Context, sp ReportSpec) (*metrics.Report, error) {
	sp, err := sp.Normalize()
	if err != nil {
		return nil, err
	}
	tr, err := sharedWorkload(sp.Suite, sp.Workload)
	if err != nil {
		return nil, err
	}
	cfg := sp.reportConfig()
	cfg.MeterWindow = tr.Duration() + 2*sim.Millisecond
	res, err := core.RunContext(ctx, cfg, tr)
	if err != nil {
		return nil, err
	}
	return res.Report, nil
}

// ValidateGrid resolves a grid spec against a suite spec without
// running anything and returns the point count — the service's
// admission-time validation, reusing the same resolveGrid the run
// uses, so a typo'd grid name or technology fails the submission
// loudly instead of a point mid-sweep.
func ValidateGrid(sp SuiteSpec, gs GridSpec) (int, error) {
	g, err := NewSuiteFromSpec(sp).resolveGrid(gs)
	if err != nil {
		return 0, err
	}
	return g.n, nil
}

// GridRunRaw resolves and executes a grid like GridRun and returns
// each point's compact JSON, in grid order, for the service's result
// bytes. onPoint, when non-nil, is called after each finished point
// (from the goroutine that ran it) for progress reporting.
func GridRunRaw(ctx context.Context, s *Suite, gs GridSpec, onPoint func(i int, label string)) ([]json.RawMessage, error) {
	g, err := s.resolveGrid(gs)
	if err != nil {
		return nil, err
	}
	vals, err := runGrid(ctx, s.Runner, g, onPoint)
	if err != nil {
		return nil, err
	}
	out := make([]json.RawMessage, len(vals))
	for i, v := range vals {
		if out[i], err = json.Marshal(v); err != nil {
			return nil, err
		}
	}
	return out, nil
}
