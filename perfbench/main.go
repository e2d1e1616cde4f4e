// Command perfbench is the dmamem performance ledger. It runs one named
// workload for a fixed time through the public dmamem API (or, for the
// daemon workload, over loopback HTTP), checks every output against the
// golden corpus and against itself, and prints every metric by name
// with its unit as one JSON object on the last line of standard output.
//
//	bash perfbench/run.sh --workload storage --seed 1 --seconds 25 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json;
// with --trace 1 a separate traced run prints the per-layer ones and
// writes a Chrome trace-event file and a folded CPU profile under --out.
// README.md in this directory explains the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

// defaultSeed is the development seed; heldOutSeed is never used while
// tuning, so a later claim can be re-checked on inputs it was not fitted
// to.
const (
	defaultSeed = 1
	heldOutSeed = 7919
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := options{root: ".", size: fullSize, log: stderr, info: stdout}
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+workloadList())
	fs.Uint64Var(&o.seed, "seed", defaultSeed, fmt.Sprintf("input seed (held-out seed: %d)", heldOutSeed))
	seconds := fs.Float64("seconds", 20, "length of the timed phase")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	fs.StringVar(&o.out, "out", ".bench_build/perfbench", "directory for the traced run's span and profile files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || *traceFlag < 0 || *traceFlag > 1 || o.seed == 0 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive, --trace 0 or 1, --seed non-zero")
		return 2
	}
	o.seconds = time.Duration(*seconds * float64(time.Second))
	o.traced = *traceFlag == 1
	res, err := runWorkload(&o)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// options is one invocation.
type options struct {
	workload string
	seed     uint64
	seconds  time.Duration
	traced   bool
	out      string
	root     string // checkout root, where the golden corpus lives
	size     sizes
	log      io.Writer // failures and progress
	info     io.Writer // host block and simulated outcome
}

// sizes scales every input; the self-test runs the same code on tiny
// ones.
type sizes struct {
	storage   time.Duration // OLTP-St trace length
	database  time.Duration // OLTP-Db trace length
	synthetic time.Duration // Synthetic-St trace length
	setupReps int           // set-ups timed per run; setup_s is their median
	setupMin  time.Duration // trace workloads repeat cheap set-ups for this long
	coldEvery int           // daemon: one cold job in this many
}

var fullSize = sizes{
	storage:   200 * time.Millisecond,
	database:  10 * time.Millisecond,
	synthetic: 150 * time.Millisecond,
	setupReps: 5,
	setupMin:  time.Second,
	coldEvery: 8,
}

type workload struct {
	name string
	run  func(o *options, l *ledger) error
}

var workloads = []workload{
	{"storage", runStorage},
	{"database-dmt", runDatabase},
	{"multichannel", runMultichannel},
	{"daemon", runDaemon},
}

func workloadList() string {
	s := ""
	for i, w := range workloads {
		if i > 0 {
			s += ", "
		}
		s += w.name
	}
	return s
}

func runWorkload(o *options) (*result, error) {
	for _, w := range workloads {
		if w.name != o.workload {
			continue
		}
		if err := os.MkdirAll(o.out, 0o755); err != nil {
			return nil, err
		}
		printHost(o)
		l := &ledger{log: o.log, metrics: map[string]metric{}}
		if err := w.run(o, l); err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		if l.attempted == 0 {
			return nil, fmt.Errorf("%s: attempted nothing", w.name)
		}
		return &result{
			Correct:   l.failed == 0,
			Attempted: l.attempted,
			Failed:    l.failed,
			Metrics:   l.metrics,
		}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, workloadList())
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// ledger counts checked operations and collects the metrics of a run.
type ledger struct {
	attempted, failed int
	log               io.Writer
	metrics           map[string]metric
}

// check counts one operation and records its failure.
func (l *ledger) check(ok bool, format string, args ...any) {
	l.attempted++
	if !ok {
		l.failed++
		fmt.Fprintf(l.log, "perfbench: FAILED: "+format+"\n", args...)
	}
}

func (l *ledger) set(name string, v float64, unit string) {
	l.metrics[name] = metric{Value: v, Unit: unit}
}
