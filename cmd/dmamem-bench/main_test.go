package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"dmamem/internal/experiments"
)

// TestValidateConcurrency pins the rejection of non-positive
// -parallel/-workers values and the wording the user sees: the flag
// name, the bad value, and what the minimum means.
func TestValidateConcurrency(t *testing.T) {
	cases := []struct {
		parallel, workers int
		wantErr           string
	}{
		{1, 1, ""},
		{8, 4, ""},
		{0, 1, "-parallel 0 must be at least 1"},
		{-3, 1, "-parallel -3 must be at least 1"},
		{1, 0, "-workers 0 must be at least 1"},
		{1, -2, "-workers -2 must be at least 1"},
		// -parallel is checked first when both are bad.
		{0, 0, "-parallel 0 must be at least 1"},
	}
	for _, tc := range cases {
		err := validateConcurrency(tc.parallel, tc.workers)
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("validateConcurrency(%d, %d) = %v, want nil", tc.parallel, tc.workers, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("validateConcurrency(%d, %d) = %v, want error containing %q",
				tc.parallel, tc.workers, err, tc.wantErr)
		}
	}
}

// TestValidateEpoch pins the -epoch flag's guard rails: negative
// periods are rejected outright, and a positive period without the
// parallel engine is rejected instead of silently ignored.
func TestValidateEpoch(t *testing.T) {
	cases := []struct {
		epoch   time.Duration
		workers int
		wantErr string
	}{
		{0, 1, ""},
		{50 * time.Microsecond, 2, ""},
		{time.Millisecond, 8, ""},
		{-time.Microsecond, 4, "must be nonnegative"},
		{50 * time.Microsecond, 1, "needs the parallel engine"},
	}
	for _, tc := range cases {
		err := validateEpoch(tc.epoch, tc.workers)
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("validateEpoch(%v, %d) = %v, want nil", tc.epoch, tc.workers, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("validateEpoch(%v, %d) = %v, want error containing %q",
				tc.epoch, tc.workers, err, tc.wantErr)
		}
	}
}

// TestTechFlagParsing pins the -tech flag path: the comma list routes
// through the shared experiments.ParseTechList helper, so entries are
// trimmed and case-folded, unknown names fail with the registry's
// enumeration, and duplicates (aliases included) are rejected.
func TestTechFlagParsing(t *testing.T) {
	got, err := experiments.ParseTechList(" DDR4-2400, lpddr4 ")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "ddr4-2400" || got[1] != "lpddr4" {
		t.Fatalf("got %v", got)
	}
	if got, err := experiments.ParseTechList(""); err != nil || got != nil {
		t.Fatalf("empty flag: %v, %v", got, err)
	}
	if _, err := experiments.ParseTechList("sram"); err == nil ||
		!strings.Contains(err.Error(), "unknown memory technology") {
		t.Fatalf("unknown tech error: %v", err)
	}
	if _, err := experiments.ParseTechList("rdram,rdram-1600"); err == nil ||
		!strings.Contains(err.Error(), "duplicates") {
		t.Fatalf("alias duplicate error: %v", err)
	}
}

// TestEngineWorkers pins the flag→config mapping: -workers 1 is the
// serial reference engine (core Workers 0, the default), higher counts
// pass through to the parallel engine.
func TestEngineWorkers(t *testing.T) {
	for _, tc := range []struct{ in, want int }{{1, 0}, {2, 2}, {4, 4}} {
		if got := engineWorkers(tc.in); got != tc.want {
			t.Errorf("engineWorkers(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

// TestValidateFig accepts "all" and every figure name, and rejects
// anything else with a message listing the valid values.
func TestValidateFig(t *testing.T) {
	for _, fig := range append([]string{"all"}, figNames...) {
		if err := validateFig(fig); err != nil {
			t.Errorf("validateFig(%q) = %v, want nil", fig, err)
		}
	}
	for _, fig := range []string{"bogus", "", "11", "Table1", "all "} {
		err := validateFig(fig)
		if err == nil {
			t.Errorf("validateFig(%q) accepted", fig)
			continue
		}
		for _, want := range []string{"unknown -fig", "all, table1", "tech, seeds"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("validateFig(%q) = %q, want it to contain %q", fig, err, want)
			}
		}
	}
}

// TestUnknownFigExitsNonZero runs the command itself (this test binary
// re-executed as dmamem-bench) with -fig bogus: it must exit 2 with
// the valid values on stderr and print nothing on stdout.
func TestUnknownFigExitsNonZero(t *testing.T) {
	if os.Getenv("DMAMEM_BENCH_AS_MAIN") == "1" {
		os.Args = []string{"dmamem-bench", "-fig", "bogus"}
		os.Exit(realMain())
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestUnknownFigExitsNonZero$")
	cmd.Env = append(os.Environ(), "DMAMEM_BENCH_AS_MAIN=1")
	var stdout, stderr strings.Builder
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("dmamem-bench -fig bogus: err %v, want exit status 2", err)
	}
	if !strings.Contains(stderr.String(), `unknown -fig "bogus" (valid: all, table1,`) {
		t.Fatalf("stderr %q does not list the valid -fig values", stderr.String())
	}
	if stdout.Len() != 0 {
		t.Fatalf("stdout %q, want nothing", stdout.String())
	}
}
