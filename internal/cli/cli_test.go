package cli

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"strings"
	"testing"

	"dmamem/internal/trace"
)

// parse defines the generator flags on a fresh FlagSet and parses args
// into them.
func parse(t *testing.T, args ...string) *Gen {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	g := AddGen(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return g
}

// TestGenValidate pins the generator flags' rejections: the values the
// generator options would read as "use the default" (a zero duration
// or seed) and a negative duration are usage errors, like an unknown
// workload, whose error lists the valid names.
func TestGenValidate(t *testing.T) {
	for _, tc := range []struct {
		args    string
		wantErr string
	}{
		{"", ""},
		{"-workload oltp-db -duration 1ms -seed 7", ""},
		{"-seed 0", "-seed 0 is not a seed"},
		{"-duration 0", "-duration 0s must be positive"},
		{"-duration -1ms", "-duration -1ms must be positive"},
		{"-workload bogus", `unknown -workload "bogus" (valid: synthetic-st, synthetic-db, oltp-st, oltp-db)`},
	} {
		g := parse(t, strings.Fields(tc.args)...)
		err := g.Validate()
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("%q: %v, want nil", tc.args, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) || !errors.As(err, new(usageError)) {
			t.Errorf("%q: %v, want a usage error containing %q", tc.args, err, tc.wantErr)
		}
	}
}

// TestWorkloadNames keeps the advertised names and the table in step.
func TestWorkloadNames(t *testing.T) {
	names := strings.Split(workloadNames, ", ")
	if len(names) != len(workloads) {
		t.Fatalf("workloadNames lists %d workloads, the table holds %d", len(names), len(workloads))
	}
	for _, name := range names {
		if _, ok := workloads[name]; !ok {
			t.Errorf("workloadNames lists %q, which the table does not hold", name)
		}
	}
}

// TestRecordMatchesTrace pins the table's two halves to one trace per
// workload: the recording decodes to the name, record count and Table
// 2 summary of the in-memory generation. (dmamem-sim's tests pin the
// reports of the two byte for byte.)
func TestRecordMatchesTrace(t *testing.T) {
	for _, name := range strings.Split(workloadNames, ", ") {
		g := parse(t, "-workload", name, "-duration", "2ms", "-seed", "3")
		var buf bytes.Buffer
		if err := g.Record(&buf, trace.WriterOptions{ChunkRecords: 256}); err != nil {
			t.Fatalf("%s: Record: %v", name, err)
		}
		rec, err := trace.DecodeDMT(buf.Bytes())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		tr, err := g.Trace()
		if err != nil {
			t.Fatalf("%s: Trace: %v", name, err)
		}
		if got, want := trace.Analyze(rec).String(), tr.Summary(); rec.Name != tr.Name() || got != want {
			t.Errorf("%s: recorded %q %s, generated %q %s", name, rec.Name, got, tr.Name(), want)
		}
		if len(rec.Records) != tr.Len() {
			t.Errorf("%s: recorded %d records, generated %d", name, len(rec.Records), tr.Len())
		}
	}
}

// TestExit pins the exit statuses: 0 for success and -h, 2 for usage
// errors (and for parse errors the FlagSet reported itself, which are
// not printed twice), 1 for anything else.
func TestExit(t *testing.T) {
	for _, tc := range []struct {
		err        error
		want       int
		wantStderr string
	}{
		{nil, 0, ""},
		{flag.ErrHelp, 0, ""},
		{Usagef("-x %d is bad", 3), 2, "cmd: -x 3 is bad\n"},
		{Usagef("wrapped: %w", io.ErrUnexpectedEOF), 2, "cmd: wrapped: unexpected EOF\n"},
		{errReported, 2, ""},
		{io.ErrUnexpectedEOF, 1, "cmd: unexpected EOF\n"},
	} {
		var stderr strings.Builder
		if got := Exit(&stderr, "cmd", tc.err); got != tc.want || stderr.String() != tc.wantStderr {
			t.Errorf("Exit(%v) = %d, stderr %q; want %d, %q", tc.err, got, stderr.String(), tc.want, tc.wantStderr)
		}
	}
}

// TestRunReportsBadArguments pins what Run does before the body: an
// unknown flag and a stray argument are reported once, with the usage
// text, and the body never runs.
func TestRunReportsBadArguments(t *testing.T) {
	for _, args := range [][]string{{"-no-such-flag"}, {"-seed", "2", "stray"}} {
		fs := flag.NewFlagSet("cmd", flag.ContinueOnError)
		AddGen(fs)
		var stderr strings.Builder
		ran := false
		err := Run(fs, args, &stderr, func() error { ran = true; return nil })
		if err != errReported || ran {
			t.Errorf("%q: err %v, body ran %v; want errReported and no run", args, err, ran)
		}
		if !strings.Contains(stderr.String(), "Usage of cmd:") {
			t.Errorf("%q: stderr %q lacks the usage text", args, stderr.String())
		}
	}
}
