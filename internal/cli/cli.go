// Package cli is the front end the commands share. dmamem-sim,
// dmamem-bench and dmamem-trace each parse one ContinueOnError FlagSet
// inside a run(args, stdout, stderr) int that tests call in process;
// dmamem-serve parses and exits through the same Run and Exit.
// The flags two commands read are defined and validated here once:
// -workload, -duration and -seed (Gen), over the one workload table
// dmamem-sim and dmamem-trace record generate from. A failed check exits 2 before any work starts.
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
