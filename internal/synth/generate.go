package synth

import (
	"fmt"
	"math"

	"dmamem/internal/memsys"
	"dmamem/internal/sim"
	"dmamem/internal/trace"
)

// SizeClass is one entry of a transfer-size mixture: a transfer of
// Pages pages drawn with relative Weight.
type SizeClass struct {
	Pages  int
	Weight float64
}

// DefaultSizes is the transfer-size distribution used by default:
// single 8 KB blocks, the transfer size of the paper's data-server
// path (Section 2.1: "one or two large DMA data transfers of 8
// Kbytes"). Uniform sizes also keep aligned streams in lockstep until
// the end of the transfers, as in Figure 3.
func DefaultSizes() []SizeClass {
	return []SizeClass{{1, 1.0}}
}

// MixedSizes is a multi-block mixture (mean 1.5 pages) for the
// sensitivity study on transfer-size variance: unequal members of a
// gathered group fall out of lockstep when the short ones finish,
// which measurably weakens temporal alignment.
func MixedSizes() []SizeClass {
	return []SizeClass{{1, 0.70}, {2, 0.20}, {4, 0.10}}
}

// CheckSizes reports what is wrong with a size mixture, or nil: it
// must have a class, every class at least 1 and at most maxPages pages
// (a record carries a uint16 page count, so never more than 65535),
// and every weight positive with a finite sum. The error names Sizes,
// the config field the generators read the mixture from.
func CheckSizes(sizes []SizeClass, maxPages int) error {
	if len(sizes) == 0 {
		return fmt.Errorf("size mixture Sizes is empty")
	}
	maxPages = min(maxPages, math.MaxUint16)
	total := 0.0
	for _, c := range sizes {
		if c.Pages < 1 || c.Pages > maxPages {
			return fmt.Errorf("size mixture Sizes has a class of %d pages, outside [1, %d]", c.Pages, maxPages)
		}
		if !(c.Weight > 0) || math.IsInf(c.Weight, 1) {
			return fmt.Errorf("size mixture Sizes has a class of weight %g, not finite and positive", c.Weight)
		}
		total += c.Weight
	}
	if math.IsInf(total, 1) {
		return fmt.Errorf("size mixture Sizes has weights that sum past the float64 range")
	}
	return nil
}

type sizeSampler struct {
	classes []SizeClass
	cum     []float64
}

// newSizeSampler builds the sampler for a mixture; configs reject one
// CheckSizes does not accept before it gets here, so that panics.
func newSizeSampler(classes []SizeClass) *sizeSampler {
	if err := CheckSizes(classes, math.MaxUint16); err != nil {
		panic("synth: " + err.Error())
	}
	s := &sizeSampler{classes: classes, cum: make([]float64, len(classes))}
	total := 0.0
	for i, c := range classes {
		total += c.Weight
		s.cum[i] = total
	}
	for i := range s.cum {
		s.cum[i] /= total
	}
	s.cum[len(s.cum)-1] = 1
	return s
}

func (s *sizeSampler) sample(r *RNG) int {
	u := r.Float64()
	for i, c := range s.cum {
		if u <= c {
			return s.classes[i].Pages
		}
	}
	return s.classes[len(s.classes)-1].Pages
}

// StConfig parameterizes the Synthetic-St storage-server trace: DMA
// transfers only, Poisson arrivals, Zipf page popularity.
type StConfig struct {
	Seed     uint64
	Duration sim.Duration
	// RatePerMs is the total Poisson DMA transfer arrival rate
	// (default 100/ms as in the paper).
	RatePerMs float64
	// DiskFraction of transfers are disk DMAs; the rest are network.
	DiskFraction float64
	// Pages is the page population (working set) size.
	Pages int
	// Alpha is the Zipf skew (paper: 1.0).
	Alpha float64
	// Sizes is the transfer-size mixture; nil means DefaultSizes.
	Sizes []SizeClass
	// Buses is the number of I/O buses DMA engines are spread over.
	Buses int
}

// DefaultSt returns the paper's Synthetic-St parameters over a 100 ms
// window.
func DefaultSt() StConfig {
	return StConfig{
		Seed:         1,
		Duration:     100 * sim.Millisecond,
		RatePerMs:    100,
		DiskFraction: 0.27, // matches OLTP-St's 16.7 of 61.7 transfers/ms
		Pages:        memsys.Default().TotalPages(),
		Alpha:        1.0,
		Buses:        3,
	}
}

func (c StConfig) validate() error {
	switch {
	case c.Duration <= 0:
		return fmt.Errorf("synth: nonpositive duration %v", c.Duration)
	case c.RatePerMs <= 0:
		return fmt.Errorf("synth: nonpositive rate %g", c.RatePerMs)
	case c.DiskFraction < 0 || c.DiskFraction > 1:
		return fmt.Errorf("synth: disk fraction %g outside [0,1]", c.DiskFraction)
	case c.Pages <= 0:
		return fmt.Errorf("synth: nonpositive page population %d", c.Pages)
	case !ValidSkew(c.Alpha):
		return fmt.Errorf("synth: Zipf skew Alpha %g is not finite and non-negative", c.Alpha)
	case c.Buses <= 0 || c.Buses > 255:
		return fmt.Errorf("synth: bus count %d", c.Buses)
	}
	if c.Sizes != nil {
		if err := CheckSizes(c.Sizes, c.Pages); err != nil {
			return fmt.Errorf("synth: %w", err)
		}
	}
	return nil
}

// GenerateSt produces a Synthetic-St trace. Page popularity is Zipf
// over a randomly permuted page population, so hot pages are scattered
// through the physical address space (the layout technique, not the
// generator, is responsible for clustering them). GenerateSt is the
// in-memory collector over GenerateStTo; use the latter to stream an
// hour-scale trace straight to a trace.Writer.
func GenerateSt(c StConfig) (*trace.Trace, error) {
	// Synthetic workloads have no server model behind them; declare the
	// assumed client-perceived response time the CP-Limit transform
	// should calibrate against (a typical 1 ms data-server budget).
	tr := &trace.Trace{Name: "Synthetic-St", Meta: SyntheticMeta()}
	err := GenerateStTo(c, func(r trace.Record) error {
		tr.Records = append(tr.Records, r)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return tr, nil
}

// DbConfig parameterizes the Synthetic-Db database-server trace:
// network DMAs plus processor cache-line accesses.
type DbConfig struct {
	St StConfig
	// ProcRatePerMs is the Poisson processor-access rate (paper:
	// 10000/ms). Ignored when ProcPerTransfer > 0.
	ProcRatePerMs float64
	// ProcPerTransfer, when positive, injects exactly this many
	// processor accesses per DMA transfer (the Figure 9 sweep).
	ProcPerTransfer int
}

// DefaultDb returns the paper's Synthetic-Db parameters.
func DefaultDb() DbConfig { return DbOf(DefaultSt()) }

// DbOf returns the Synthetic-Db parameters over the DMA stream st
// describes: network DMAs only, and seed 1, the Synthetic-St default,
// moved to 2 so the two synthetic workloads draw distinct streams.
func DbOf(st StConfig) DbConfig {
	st.DiskFraction = 0
	if st.Seed == 1 {
		st.Seed = 2
	}
	return DbConfig{St: st, ProcRatePerMs: 10000}
}

// GenerateDb produces a Synthetic-Db trace: the St DMA stream plus
// processor accesses. Processor accesses follow the same Zipf
// popularity (the bufferpool's hot pages are hot for the CPU too).
// GenerateDb is the in-memory collector over GenerateDbTo.
func GenerateDb(c DbConfig) (*trace.Trace, error) {
	tr := &trace.Trace{Name: "Synthetic-Db", Meta: SyntheticMeta()}
	err := GenerateDbTo(c, func(r trace.Record) error {
		tr.Records = append(tr.Records, r)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return tr, nil
}

func procKind(r *RNG) trace.Kind {
	if r.Float64() < 0.5 {
		return trace.ProcRead
	}
	return trace.ProcWrite
}
