package dmamem

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestTraceFileRoundTrip pins the public record-then-replay path: a
// trace streamed through CreateTraceFile, or built in memory (by hand
// or by a workload model) and SaveFile'd, must keep its name and
// client-response metadata through ReadTraceFile, and must report
// identically whether simulated in memory, loaded back, or replayed
// through Simulation.TraceFile. The metadata feeds the CP-Limit
// calibration, so a codec that dropped it would shift DMA-TA's derived
// mu and savings while every record survived.
func TestTraceFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	streamed := filepath.Join(dir, "streamed.dmt")
	saved := filepath.Join(dir, "saved.dmt")

	mem := NewTrace("roundtrip")
	tw, err := CreateTraceFile(streamed, "roundtrip")
	if err != nil {
		t.Fatal(err)
	}
	_, _, pageBytes := MemoryGeometry()
	if pageBytes <= 0 {
		t.Fatal("bad geometry")
	}
	for i := 0; i < 2000; i++ {
		at := time.Duration(i) * 40 * time.Microsecond
		page := (i * 13) % 1000
		if i%5 == 4 {
			if err := mem.AppendProcessorAccess(at, page, i%2 == 0); err != nil {
				t.Fatal(err)
			}
			if err := tw.AppendProcessorAccess(at, page, i%2 == 0); err != nil {
				t.Fatal(err)
			}
			continue
		}
		src := FromNetwork
		if i%3 == 0 {
			src = FromDisk
		}
		if err := mem.AppendDMA(at, src, i%3, page, 1+i%2, i%2 == 0); err != nil {
			t.Fatal(err)
		}
		if err := tw.AppendDMA(at, src, i%3, page, 1+i%2, i%2 == 0); err != nil {
			t.Fatal(err)
		}
	}
	mem.SetClientResponse(time.Millisecond, 2)
	tw.SetClientResponse(time.Millisecond, 2)
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := mem.SaveFile(saved); err != nil {
		t.Fatal(err)
	}

	oltp, err := StorageServerTrace(ServerOptions{Duration: 10 * time.Millisecond, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if oltp.t.Meta.MeanClientResponse == 0 || oltp.t.Meta.TransfersPerClientRequest == 0 {
		t.Fatalf("OLTP-St trace carries no client-response metadata: %+v", oltp.t.Meta)
	}
	oltpPath := filepath.Join(dir, "oltp-st.dmt")
	if err := oltp.SaveFile(oltpPath); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		src  *Trace
		path string
	}{{mem, streamed}, {mem, saved}, {oltp, oltpPath}} {
		info, err := StatTraceFile(tc.path)
		if err != nil {
			t.Fatalf("%s: %v", tc.path, err)
		}
		if info.Name != tc.src.Name() || info.Records != int64(tc.src.Len()) {
			t.Fatalf("%s: info %+v", tc.path, info)
		}
		if info.Duration != tc.src.Duration() {
			t.Fatalf("%s: duration %v, want %v", tc.path, info.Duration, tc.src.Duration())
		}
		loaded, err := ReadTraceFile(tc.path)
		if err != nil {
			t.Fatalf("%s: %v", tc.path, err)
		}
		if loaded.Name() != tc.src.Name() || !reflect.DeepEqual(loaded.t.Records, tc.src.t.Records) {
			t.Fatalf("%s: loaded %d records as %q", tc.path, loaded.Len(), loaded.Name())
		}
		if loaded.t.Meta != tc.src.t.Meta {
			t.Fatalf("%s: metadata %+v, want %+v", tc.path, loaded.t.Meta, tc.src.t.Meta)
		}

		s := Simulation{Technique: TemporalAlignmentWithLayout, CPLimit: 0.10, PLGroups: 2}
		want, err := Run(s, tc.src)
		if err != nil {
			t.Fatal(err)
		}
		fromLoaded, err := Run(s, loaded)
		if err != nil {
			t.Fatal(err)
		}
		s.TraceFile = tc.path
		fromFile, err := Run(s, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, fromLoaded) || !reflect.DeepEqual(want, fromFile) {
			t.Fatalf("%s: DMA-TA-PL report differs:\nmem:    %+v\nloaded: %+v\nfile:   %+v", tc.path, want, fromLoaded, fromFile)
		}
	}

	// Compare replays the file for both runs of the pair.
	s := Simulation{Technique: TemporalAlignment, CPLimit: 0.10}
	memCmp, err := Compare(s, mem)
	if err != nil {
		t.Fatal(err)
	}
	s.TraceFile = streamed
	cmp, err := Compare(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(memCmp, cmp) {
		t.Fatal("file-backed comparison differs from in-memory")
	}
}

// TestTraceFileErrors pins the public failure modes.
func TestTraceFileErrors(t *testing.T) {
	if _, err := Run(Simulation{}, nil); err == nil || !strings.Contains(err.Error(), "TraceFile") {
		t.Fatalf("nil trace without TraceFile: %v", err)
	}
	tr := NewTrace("x")
	if err := tr.AppendDMA(0, FromNetwork, 0, 0, 1, true); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "x.dmt")
	if err := tr.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(Simulation{TraceFile: path}, tr); err == nil {
		t.Fatal("both trace and TraceFile accepted")
	}
	if _, err := StatTraceFile(filepath.Join(t.TempDir(), "missing.dmt")); err == nil {
		t.Fatal("missing file statted")
	}
	// .dmt is the only on-disk format: anything else fails on its magic.
	notDMT := filepath.Join(t.TempDir(), "trace.bin")
	if err := os.WriteFile(notDMT, append([]byte("DMAT"), make([]byte, 4096)...), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := StatTraceFile(notDMT); err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("StatTraceFile on a non-.dmt file: %v", err)
	}
	if _, err := ReadTraceFile(notDMT); err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("ReadTraceFile on a non-.dmt file: %v", err)
	}
	if _, err := Run(Simulation{TraceFile: notDMT}, nil); err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("replaying a non-.dmt file: %v", err)
	}
	if _, err := ReadTraceFile(path); err != nil {
		t.Fatalf("ReadTraceFile: %v", err)
	}

	// TraceWriter enforces the same field validation as Trace.
	tw, err := CreateTraceFile(filepath.Join(t.TempDir(), "w.dmt"), "w")
	if err != nil {
		t.Fatal(err)
	}
	defer tw.Close()
	if err := tw.AppendDMA(0, FromNetwork, -1, 0, 1, true); err == nil {
		t.Fatal("negative bus accepted")
	}
	if err := tw.AppendDMA(0, FromNetwork, 0, -1, 1, true); err == nil {
		t.Fatal("negative page accepted")
	}
	if err := tw.AppendDMA(0, FromNetwork, 0, 0, 0, true); err == nil {
		t.Fatal("zero-page transfer accepted")
	}
	if err := tw.AppendDMA(time.Millisecond, FromNetwork, 0, 0, 1, true); err != nil {
		t.Fatal(err)
	}
	if err := tw.AppendDMA(time.Microsecond, FromNetwork, 0, 0, 1, true); err == nil {
		t.Fatal("out-of-order append accepted")
	}
}
