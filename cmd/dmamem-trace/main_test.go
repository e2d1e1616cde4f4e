package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"dmamem"
)

// The subcommands exit the process on error (fatal), so reaching the
// end of each call is the success assertion; the golden and
// feeder-equivalence suites under internal/experiments pin the
// numbers these commands print.

// TestMain lets a test re-execute this binary as dmamem-trace: with
// DMAMEM_TRACE_ARGS set, the process runs main on those arguments
// instead of the tests.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("DMAMEM_TRACE_ARGS"); ok {
		os.Args = append([]string{"dmamem-trace"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestRecordInfoReplay records a trace, inspects it, and replays the
// file through Simulation.TraceFile (what dmamem-sim -trace runs): the
// recording must simulate every transfer it holds.
func TestRecordInfoReplay(t *testing.T) {
	dmt := filepath.Join(t.TempDir(), "st.dmt")
	record([]string{"-workload", "synthetic-st", "-duration", "2ms", "-chunk", "128", "-o", dmt})
	st, err := dmamem.StatTraceFile(dmt)
	if err != nil || st.Name != "Synthetic-St" || st.ChunkRecords != 128 {
		t.Fatalf("record produced %+v, %v", st, err)
	}

	info([]string{dmt}, false) // footer-only summary
	info([]string{dmt}, true)  // popularity CDF: decodes the records

	rep, err := dmamem.Run(dmamem.Simulation{
		TraceFile: dmt, Technique: dmamem.TemporalAlignmentWithLayout, CPLimit: 0.10, PLGroups: 2,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if int64(rep.Transfers) != st.DMATransfers {
		t.Fatalf("replay simulated %d transfers, the file holds %d", rep.Transfers, st.DMATransfers)
	}
}

func TestRecordAllWorkloads(t *testing.T) {
	dir := t.TempDir()
	for _, w := range []string{"synthetic-db", "oltp-st", "oltp-db"} {
		p := filepath.Join(dir, w+".dmt")
		record([]string{"-workload", w, "-duration", "2ms", "-o", p})
		if _, err := dmamem.StatTraceFile(p); err != nil {
			t.Errorf("workload %s: %v", w, err)
		}
	}
}

// TestRejectsWhatItWouldIgnore runs the command itself (this test
// binary re-executed as dmamem-trace) in a directory holding two valid
// containers and one file of another format. Stray positional
// arguments, a missing path and an unknown subcommand exit 2 with the
// usage line and write nothing; a file that is not a .dmt container
// exits 1 on its bad magic.
func TestRejectsWhatItWouldIgnore(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"a.dmt", "b.dmt"} {
		record([]string{"-workload", "synthetic-st", "-duration", "1ms", "-o", filepath.Join(dir, name)})
	}
	if err := os.WriteFile(filepath.Join(dir, "trace.bin"), append([]byte("DMAT"), make([]byte, 4096)...), 0o644); err != nil {
		t.Fatal(err)
	}
	const usageLine = "usage: dmamem-trace"
	for _, tc := range []struct {
		args     string
		exit     int
		wantErr  string
		notWrite string
	}{
		{"info a.dmt b.dmt", 2, usageLine, ""},
		{"cdf a.dmt b.dmt", 2, usageLine, ""},
		{"info", 2, usageLine, ""},
		{"record -duration 2ms out.dmt", 2, usageLine, "trace.dmt"},
		{"record -o c.dmt extra", 2, usageLine, "c.dmt"},
		{"replay a.dmt", 2, usageLine, ""},
		{"gen -o c.dmt", 2, usageLine, "c.dmt"},
		{"info trace.bin", 1, "bad magic", ""},
		{"cdf trace.bin", 1, "bad magic", ""},
	} {
		cmd := exec.Command(os.Args[0])
		cmd.Dir = dir
		cmd.Env = append(os.Environ(), "DMAMEM_TRACE_ARGS="+tc.args)
		var stdout, stderr strings.Builder
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != tc.exit {
			t.Errorf("dmamem-trace %s: err %v, want exit status %d", tc.args, err, tc.exit)
			continue
		}
		if !strings.Contains(stderr.String(), tc.wantErr) {
			t.Errorf("dmamem-trace %s: stderr %q, want %q", tc.args, stderr.String(), tc.wantErr)
		}
		if stdout.Len() != 0 {
			t.Errorf("dmamem-trace %s: stdout %q, want nothing", tc.args, stdout.String())
		}
		if tc.notWrite != "" {
			if _, err := os.Stat(filepath.Join(dir, tc.notWrite)); !errors.Is(err, os.ErrNotExist) {
				t.Errorf("dmamem-trace %s wrote %s", tc.args, tc.notWrite)
			}
		}
	}
}
