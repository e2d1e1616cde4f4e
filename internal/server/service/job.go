// Package service is the simulation-as-a-service layer: a
// long-running HTTP/JSON daemon (cmd/dmamem-serve) that accepts
// validated Simulation/GridSpec job submissions from tenants,
// schedules them on a bounded worker fleet with admission control and
// per-tenant weighted fair queueing, caches completed results keyed
// by a canonical config hash, and streams per-job progress events.
//
// Results are bit-stable: a report job's response is the golden-corpus
// serialization of its metrics.Report (byte-identical to
// internal/experiments/testdata/golden/ for the default suite), and a
// grid job's points are the same bytes at any point parallelism.
// That stability is what makes the result cache sound: two
// submissions that normalize to the same canonical spec share one
// answer.
package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"

	"dmamem"
	"dmamem/internal/experiments"
	"dmamem/internal/sim"
)

// schemaVersion is the job schema this daemon speaks. Submissions may
// omit Version (0 means "current"); any other value is rejected
// loudly so a mixed-version fleet fails fast instead of silently
// reinterpreting fields.
const schemaVersion = 1

// maxJobBytes bounds one submission body; larger bodies are rejected
// before decoding rather than honored with a giant allocation.
const maxJobBytes = 1 << 20

// errBadJob tags submissions the decoder or validator rejected:
// malformed JSON, unknown fields, version skew, enumeration
// violations. Handlers map it to HTTP 400.
var errBadJob = errors.New("service: bad job")

// Job is one tenant submission. Exactly one of Workload (a report
// job: one Table 2 workload under one scheme, returning the full
// report) or Grid (a sweep job: a named experiments grid, returning
// its points) must be set. Every other field is defaultable — the
// zero value selects the golden-corpus default — and out-of-range
// values error loudly at submission, reusing Simulation.Validate and
// the grid resolver for the enumerations.
type Job struct {
	// Version of the job schema; 0 means schemaVersion.
	Version int `json:",omitempty"`
	// Tenant is the submitting tenant's identity for fair queueing and
	// admission control. Empty means "default".
	Tenant string `json:",omitempty"`
	// Workload names a Table 2 trace ("OLTP-St", "Synthetic-St",
	// "OLTP-Db", "Synthetic-Db") for a report job.
	Workload string `json:",omitempty"`
	// Scheme is the energy-management scheme of a report job:
	// "baseline", "dma-ta" or "dma-ta-pl". Empty means "baseline".
	Scheme string `json:",omitempty"`
	// CPLimit is the DMA-TA degradation bound; 0 selects the paper's
	// 0.10 for the alignment schemes.
	CPLimit float64 `json:",omitempty"`
	// PLGroups is the PL popularity group count; 0 selects 2.
	PLGroups int `json:",omitempty"`
	// Tech selects the memory-technology backend by registry name;
	// empty keeps the RDRAM default.
	Tech string `json:",omitempty"`
	// DurationMs is the generated trace duration in simulated
	// milliseconds; 0 selects the golden suite's 4 ms. A report job
	// reads it only for the -St workloads (OLTP-St, Synthetic-St).
	DurationMs float64 `json:",omitempty"`
	// DbDurationMs is the duration for the denser database traces;
	// 0 selects the golden suite's 2 ms. A report job reads it only
	// for the -Db workloads (OLTP-Db, Synthetic-Db). The duration a
	// report job does not read is canonicalized to its default, so it
	// never changes the job's hash or misses the result cache.
	DbDurationMs float64 `json:",omitempty"`
	// Seed for the trace generators; 0 selects the golden suite's 1.
	Seed uint64 `json:",omitempty"`
	// Grid submits a sweep job instead: a named experiments grid
	// (fig5, fig8, fig9, fig10, noop) with its parameters. The suite
	// fields above (DurationMs, DbDurationMs, Seed) configure the
	// traces the grid runs over.
	Grid *experiments.GridSpec `json:",omitempty"`
}

// DecodeJob parses one submission body. It never panics on arbitrary
// input: truncated bodies, unknown fields, non-JSON bytes, NaN/Inf
// float tokens and trailing garbage are all loud errBadJob errors,
// mirroring the .dmt container decoder's contract (FuzzDMTDecode).
func DecodeJob(data []byte) (Job, error) {
	var j Job
	if len(data) > maxJobBytes {
		return j, fmt.Errorf("%w: body %d bytes exceeds the %d-byte limit", errBadJob, len(data), maxJobBytes)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&j); err != nil {
		if errors.Is(err, io.EOF) {
			return Job{}, fmt.Errorf("%w: empty body", errBadJob)
		}
		return Job{}, fmt.Errorf("%w: %v", errBadJob, err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return Job{}, fmt.Errorf("%w: trailing data after the job object", errBadJob)
	}
	return j, nil
}

// work is the canonical, tenant-independent execution spec of a
// normalized job — the value whose canonical hash keys the result
// cache. Exactly one field is set.
type work struct {
	Report *experiments.ReportSpec `json:",omitempty"`
	Grid   *gridWork               `json:",omitempty"`
}

// gridWork pairs a grid with the suite it resolves against.
type gridWork struct {
	Suite experiments.SuiteSpec
	Grid  experiments.GridSpec
}

// msToSim converts simulated milliseconds to sim.Duration
// (picoseconds), rejecting NaN/Inf and negatives.
func msToSim(name string, ms float64) (sim.Duration, error) {
	if math.IsNaN(ms) || math.IsInf(ms, 0) {
		return 0, fmt.Errorf("%w: %s is not a finite number", errBadJob, name)
	}
	if ms < 0 {
		return 0, fmt.Errorf("%w: negative %s %v", errBadJob, name, ms)
	}
	const maxMs = 60_000 // one simulated minute bounds a single job
	if ms > maxMs {
		return 0, fmt.Errorf("%w: %s %v exceeds the %d ms service bound", errBadJob, name, ms, maxMs)
	}
	return sim.Duration(math.Round(ms * float64(sim.Millisecond))), nil
}

// suiteSpec builds the SuiteSpec of a job's trace configuration with
// golden-corpus defaults.
func (j Job) suiteSpec() (experiments.SuiteSpec, error) {
	var sp experiments.SuiteSpec
	var err error
	if sp.Duration, err = msToSim("DurationMs", j.DurationMs); err != nil {
		return sp, err
	}
	if sp.DbDuration, err = msToSim("DbDurationMs", j.DbDurationMs); err != nil {
		return sp, err
	}
	if sp.Duration == 0 {
		sp.Duration = 4 * sim.Millisecond
	}
	if sp.DbDuration == 0 {
		sp.DbDuration = 2 * sim.Millisecond
	}
	sp.Seed = j.Seed
	if sp.Seed == 0 {
		sp.Seed = 1
	}
	return sp, nil
}

// simTechnique maps a normalized scheme name onto the public API's
// technique enumeration for Simulation.Validate.
func simTechnique(scheme string) dmamem.Technique {
	switch scheme {
	case "dma-ta":
		return dmamem.TemporalAlignment
	case "dma-ta-pl":
		return dmamem.TemporalAlignmentWithLayout
	}
	return dmamem.Baseline
}

// normalize validates a submission and returns its canonical work
// spec plus the grid point count (0 for report jobs). All enumeration
// errors are loud and reuse the library's own validators:
// Simulation.Validate for report parameters, the experiments grid
// resolver for grid names and technologies.
func (j Job) normalize(maxGridPoints int) (work, int, error) {
	if j.Version != 0 && j.Version != schemaVersion {
		return work{}, 0, fmt.Errorf("%w: job schema version %d, want %d (or omit it)", errBadJob, j.Version, schemaVersion)
	}
	if math.IsNaN(j.CPLimit) || math.IsInf(j.CPLimit, 0) {
		return work{}, 0, fmt.Errorf("%w: CPLimit is not a finite number", errBadJob)
	}
	switch {
	case j.Workload == "" && j.Grid == nil:
		return work{}, 0, fmt.Errorf("%w: set either Workload (a report job) or Grid (a sweep job)", errBadJob)
	case j.Workload != "" && j.Grid != nil:
		return work{}, 0, fmt.Errorf("%w: both Workload %q and Grid %q set; submit one job per kind", errBadJob, j.Workload, j.Grid.Name)
	}
	suite, err := j.suiteSpec()
	if err != nil {
		return work{}, 0, err
	}
	if j.Grid != nil {
		gw := &gridWork{Suite: suite, Grid: *j.Grid}
		n, err := experiments.ValidateGrid(gw.Suite, gw.Grid)
		if err != nil {
			return work{}, 0, fmt.Errorf("%w: %v", errBadJob, err)
		}
		if n <= 0 {
			return work{}, 0, fmt.Errorf("%w: grid %q resolves to %d points; set its sweep parameters", errBadJob, gw.Grid.Name, n)
		}
		if maxGridPoints > 0 && n > maxGridPoints {
			return work{}, 0, fmt.Errorf("%w: grid %q resolves to %d points, over the service bound %d", errBadJob, gw.Grid.Name, n, maxGridPoints)
		}
		return work{Grid: gw}, n, nil
	}
	rs := experiments.ReportSpec{
		Suite:    suite,
		Workload: j.Workload,
		Scheme:   j.Scheme,
		CPLimit:  j.CPLimit,
		PLGroups: j.PLGroups,
		Tech:     j.Tech,
	}
	rs, err = rs.Normalize()
	if err != nil {
		return work{}, 0, fmt.Errorf("%w: %v", errBadJob, err)
	}
	// The public API contract is the final word on the technique
	// parameters: re-validate the normalized spec through
	// Simulation.Validate so the daemon can never accept a job the
	// library would reject.
	s := dmamem.Simulation{
		Technique:  simTechnique(rs.Scheme),
		CPLimit:    rs.CPLimit,
		PLGroups:   rs.PLGroups,
		MemoryTech: rs.Tech,
	}
	if err := s.Validate(); err != nil {
		return work{}, 0, fmt.Errorf("%w: %v", errBadJob, err)
	}
	return work{Report: &rs}, 0, nil
}
