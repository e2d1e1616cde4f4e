package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// median returns the middle value (mean of the two middle ones for an
// even count); xs is not modified.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation
// between order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// tail is a latency percentile fixed per workload: the highest one
// that leaves at least ten samples beyond it in every run and whose
// value repeats from run to run.
type tail float64

// of returns the percentile's value and the number of samples beyond
// it.
func (t tail) of(xs []float64) (float64, int) {
	return quantile(xs, float64(t)), int(float64(len(xs)) * (1 - float64(t)))
}

func (t tail) String() string { return fmt.Sprintf("p%g", 100*float64(t)) }

// settle makes the heap state before a timed pass the same every time:
// a full collection with freed spans returned to the OS.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

// resetPeakRSS clears the kernel's resident-set high-water mark, so
// the VmHWM read after the timed phase covers that phase only.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads VmHWM from /proc/self/status, in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line[len("VmHWM:"):])
		if len(fields) != 2 || fields[1] != "kB" {
			return 0, fmt.Errorf("unexpected VmHWM line %q", line)
		}
		kb, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("perfbench: getrusage(RUSAGE_SELF): " + err.Error()) // only a bad argument fails
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapCounters snapshots the allocator and collector counters.
type heapCounters struct {
	mallocs, gcs uint64
	pause        time.Duration
}

func readHeap() heapCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return heapCounters{mallocs: ms.Mallocs, gcs: uint64(ms.NumGC), pause: time.Duration(ms.PauseTotalNs)}
}

func (h heapCounters) sub(o heapCounters) heapCounters {
	return heapCounters{mallocs: h.mallocs - o.mallocs, gcs: h.gcs - o.gcs, pause: h.pause - o.pause}
}

// printHost writes the host block: what a reader needs to compare two
// ledgers.
func printHost(o *options) {
	rev := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				rev = s.Value
			}
		}
	}
	fmt.Fprintf(o.info, "# host: cpus=%d gomaxprocs=%d go=%s os=%s/%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	fmt.Fprintf(o.info, "# commit: %s source-sha256=%s\n", rev, sourceDigest())
	fmt.Fprintf(o.info, "# run: workload=%s seed=%d seconds=%g trace=%v\n",
		o.workload, o.seed, o.seconds.Seconds(), o.traced)
}

// sourceDigest hashes the Go sources and go.mod under the working
// directory (the checkout root, skipping perfbench/, testdata and
// hidden directories), so two ledgers can be matched to the code they
// measured even where the checkout is not a git repository.
func sourceDigest() string {
	h := sha256.New()
	root := "."
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "perfbench" || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && path != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", path, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unavailable"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
