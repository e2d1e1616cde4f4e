// Package cli is the front end the commands share. dmamem-sim,
// dmamem-bench and dmamem-trace each parse one ContinueOnError FlagSet
// inside a run(args, stdout, stderr) int that tests call in process;
// dmamem-serve parses and exits through the same Run and Exit.
// The flags two commands read are defined and validated here once:
// -workers (Engine), and -workload, -duration and -seed
// (Gen), over the one workload table dmamem-sim and dmamem-trace
// record generate from. A failed check exits 2 before any work starts.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"time"
)

// usageError is a bad flag or flag combination: Exit maps it to
// status 2, the flag package's status for usage errors.
type usageError struct{ error }

func (u usageError) Unwrap() error { return u.error }

// Usagef formats a usage error; %w keeps the wrapped error matchable.
func Usagef(format string, a ...any) error { return usageError{fmt.Errorf(format, a...)} }

// errReported is a parse error the FlagSet has already written to
// stderr, with its usage text.
var errReported = errors.New("bad flags")

// Run parses args into fs, a ContinueOnError FlagSet that reports
// parse errors, stray arguments and -h help on stderr, and runs body,
// which reads the flags.
func Run(fs *flag.FlagSet, args []string, stderr io.Writer, body func() error) error {
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errReported
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "stray arguments %q\n", fs.Args())
		fs.Usage()
		return errReported
	}
	return body()
}

// Exit writes err to stderr behind the command's name and returns the
// exit status: 0 for nil and -h, 2 for a usage error, 1 for any other.
func Exit(stderr io.Writer, name string, err error) int {
	switch {
	case err == nil || errors.Is(err, flag.ErrHelp):
		return 0
	case err == errReported:
		return 2
	}
	fmt.Fprintf(stderr, "%s: %v\n", name, err)
	if errors.As(err, new(usageError)) {
		return 2
	}
	return 1
}

// Positive rejects a duration flag that is not positive: no trace is
// empty or negative in length.
func Positive(name string, d time.Duration) error {
	if d <= 0 {
		return Usagef("-%s %v must be positive", name, d)
	}
	return nil
}

// Engine holds -workers, which picks the event-loop engine inside
// each simulation: 1 the serial engine, 2 or more the barrier engine
// with one event loop per memory channel. On one channel, reports are
// byte-identical at any value. On more than one channel the two
// engines give different reports, and among values of 2 or more the
// count never changes the report.
type Engine struct {
	workers int
}

// AddEngine defines -workers on fs.
func AddEngine(fs *flag.FlagSet) *Engine {
	e := &Engine{}
	fs.IntVar(&e.workers, "workers", 1, "most event-loop goroutines inside each simulation; short spans run inline. "+
		"1 = serial engine, 2 or more = barrier engine; on more than one channel the two engines give different reports, "+
		"and any count of 2 or more gives the same report")
	return e
}

// Validate rejects a -workers below 1, which would otherwise surface
// as a confusing core error mid-run.
func (e *Engine) Validate() error {
	if e.workers <= 0 {
		return Usagef("-workers %d must be at least 1 (1 selects the serial reference engine)", e.workers)
	}
	return nil
}

// Workers maps -workers onto Simulation.Workers and
// core.Config.Workers: 1 is the serial reference engine (0, the
// default), higher counts select the barrier engine.
func (e *Engine) Workers() int {
	if e.workers <= 1 {
		return 0
	}
	return e.workers
}
