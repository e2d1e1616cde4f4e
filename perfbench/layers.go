package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sync/atomic"
	"time"

	"dmamem"
	"dmamem/internal/bus"
	"dmamem/internal/experiments"
	"dmamem/internal/layout"
	"dmamem/internal/memsys"
	"dmamem/internal/server"
	"dmamem/internal/server/service"
	"dmamem/internal/sim"
	"dmamem/internal/synth"
	"dmamem/internal/trace"
)

// The traced run: per-layer numbers for one workload. It times the
// benchmark's own calls into each layer's exported functions on the
// workload's inputs, folds a CPU profile of traced passes by package,
// and measures the tracing overhead against untraced passes in the
// same process. Every per-layer metric is printed on every workload; a
// layer the workload does not exercise reads 0.

// layerMetrics are the per-layer metrics with their units.
var layerMetrics = func() [][2]string {
	m := [][2]string{
		{"server.gen_s", "s"}, {"synth.gen_s", "s"},
		{"trace.encode_ns_per_record", "ns"}, {"trace.decode_ns_per_record", "ns"},
		{"sim.events", "count"}, {"sim.ns_per_event", "ns"},
		{"bus.allocate_ns", "ns"},
		{"layout.observe_ns", "ns"}, {"layout.rebalance_ms", "ms"}, {"layout.migrated_pages", "count"},
		{"controller.transfers", "count"}, {"controller.wakes", "count"},
		{"core.cpu_per_wall", "ratio"}, {"core.serial_records_per_s", "1/s"},
		{"experiments.canonical_json_us", "us"},
		{"service.decode_us", "us"}, {"service.queue_wait_ms", "ms"}, {"service.run_ms", "ms"},
		{"service.cache_hit_ratio", "ratio"},
		{"runtime.gc_cycles", "count"}, {"runtime.gc_pause_ms", "ms"},
		{"core.records_per_s", "1/s"},
		{"tracing.traced_work_per_cpu_s", "1/cpu_s"}, {"tracing.untraced_work_per_cpu_s", "1/cpu_s"},
	}
	for _, l := range shareLayers {
		m = append(m, [2]string{l + ".self_share", "ratio"})
	}
	return m
}()

// zeroLayers sets every per-layer metric to 0, to be overwritten by
// the layers the workload exercises.
func zeroLayers(l *ledger) {
	for _, m := range layerMetrics {
		l.set(m[0], 0, m[1])
	}
}

func unitOf(name string) string {
	for _, m := range layerMetrics {
		if m[0] == name {
			return m[1]
		}
	}
	panic("perfbench: no per-layer metric " + name)
}

func (l *ledger) layer(name string, v float64) { l.set(name, v, unitOf(name)) }

// outPath names an output file of the traced run.
func outPath(o *options, kind string) string {
	return filepath.Join(o.out, fmt.Sprintf("%s-seed%d.%s", o.workload, o.seed, kind))
}

// profiled runs fn under the CPU profiler and returns the profile.
func profiled(fn func() error) (*profile, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, err
	}
	err := fn()
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	return parseProfile(buf.Bytes())
}

func recordShares(o *options, l *ledger, prof *profile) error {
	sh, total := prof.shares()
	if total == 0 {
		return fmt.Errorf("the CPU profile holds no samples")
	}
	for _, name := range shareLayers {
		l.layer(name+".self_share", sh[name])
	}
	return prof.writeFolded(outPath(o, "folded.txt"))
}

func traceComparison(o *options, l *ledger, p *prepared) error {
	zeroLayers(l)
	tr := newTracer()
	c := p.c
	untraced, err := timedPasses(l, p, o.seconds*2/5, nil)
	if err != nil {
		return err
	}
	var traced *passStats
	prof, err := profiled(func() error {
		defer tr.begin("traced passes", "", 0)()
		var err error
		traced, err = timedPasses(l, p, o.seconds*2/5, func(scheme string) func() {
			return tr.begin("dmamem.Run "+scheme, "traced passes", 0)
		})
		return err
	})
	if err != nil {
		return err
	}
	if err := recordShares(o, l, prof); err != nil {
		return err
	}
	passes := float64(len(untraced.cpuRate))
	l.layer("tracing.untraced_work_per_cpu_s", median(untraced.cpuRate))
	l.layer("tracing.traced_work_per_cpu_s", median(traced.cpuRate))
	l.layer("runtime.gc_cycles", float64(untraced.heap.gcs)/passes)
	l.layer("runtime.gc_pause_ms", ms(untraced.heap.pause)/passes)
	l.layer("core.cpu_per_wall", untraced.cpu.Seconds()/untraced.wall.Seconds())
	l.layer("core.records_per_s", median(untraced.wallRate))

	reps, err := runPass(p.sims, passTrace(p))
	if err != nil {
		return err
	}
	var events, transfers, wakes float64
	for _, r := range reps {
		events += float64(r.Events)
		transfers += float64(r.Transfers)
		wakes += float64(r.Wakes)
	}
	l.layer("sim.events", events)
	l.layer("controller.transfers", transfers)
	l.layer("controller.wakes", wakes)

	if c.golden == "Synthetic-St" {
		// The serial engine answers a multi-channel run differently from
		// the barrier engine, so its passes are checked against its own
		// first (untimed) pass.
		serial := *p
		serial.sims = withWorkers(p.sims, 0)
		reps, err := runPass(serial.sims, passTrace(p))
		if err != nil {
			return err
		}
		serial.first = digests(reps)
		st, err := timedPasses(l, &serial, o.seconds/10, nil)
		if err != nil {
			return err
		}
		l.layer("core.serial_records_per_s", median(st.wallRate))
	}
	if err := tr.do("layers", "", func() error { return replayLayers(o, l, p, tr) }); err != nil {
		return err
	}
	fmt.Fprintf(o.info, "# tracing overhead: %.0f records/s untraced vs %.0f traced (%.1f%%)\n",
		median(untraced.cpuRate), median(traced.cpuRate),
		100*(median(untraced.cpuRate)/median(traced.cpuRate)-1))
	return tr.write(outPath(o, "trace.json"))
}

// replayLayers times each layer's exported functions on the workload's
// own records: the generator, the .dmt encoder and decoder, the event
// kernel, the bus allocator and the layout manager.
func replayLayers(o *options, l *ledger, p *prepared, tr *tracer) error {
	var recs *trace.Trace
	gen := func() error {
		var err error
		switch p.c.golden {
		case "OLTP-St":
			cfg := server.DefaultStorage()
			cfg.Duration, cfg.Seed = simDur(o.size.storage), o.seed
			var res *server.StorageResult
			if res, err = server.GenerateStorage(cfg); err == nil {
				recs = res.Trace
			}
		case "OLTP-Db":
			cfg := server.DefaultDatabase()
			cfg.Duration, cfg.Seed = simDur(o.size.database), o.seed
			var res *server.DatabaseResult
			if res, err = server.GenerateDatabase(cfg); err == nil {
				recs = res.Trace
			}
		default:
			cfg := synth.DefaultSt()
			cfg.Duration, cfg.Seed = simDur(o.size.synthetic), o.seed
			recs, err = synth.GenerateSt(cfg)
		}
		return err
	}
	genLayer := "server"
	if p.c.golden == "Synthetic-St" {
		genLayer = "synth"
	}
	t0 := time.Now()
	if err := tr.do(genLayer+".Generate", "layers", gen); err != nil {
		return err
	}
	l.layer(genLayer+".gen_s", time.Since(t0).Seconds())
	n := len(recs.Records)
	l.check(n == p.in.records, "regenerated trace has %d records, the public API's %d", n, p.in.records)

	if p.in.file != "" {
		path := outPath(o, "replay.dmt")
		d, err := timed(tr, "trace.WriteDMT", func() error { return writeDMT(recs, path) })
		os.Remove(path)
		if err != nil {
			return err
		}
		l.layer("trace.encode_ns_per_record", float64(d.Nanoseconds())/float64(n))
		var decoded int
		d, err = timed(tr, "trace.Cursor", func() error {
			decoded, err = decodeAll(p.in.file)
			return err
		})
		if err != nil {
			return err
		}
		l.check(decoded == n, "decoded %d records from the set-up file, want %d", decoded, n)
		l.layer("trace.decode_ns_per_record", float64(d.Nanoseconds())/float64(n))
	}

	var steps uint64
	d, _ := timed(tr, "sim.Run", func() error {
		eng := sim.New()
		noop := func(*sim.Engine) {}
		for _, r := range recs.Records {
			eng.Schedule(r.Time, noop)
		}
		eng.Run()
		steps = eng.Steps()
		return nil
	})
	l.check(steps == uint64(n), "event kernel dispatched %d of %d events", steps, n)
	l.layer("sim.ns_per_event", float64(d.Nanoseconds())/float64(steps))

	sets := inflightFlows(recs)
	geo := memsys.Default()
	alloc := bus.NewAllocator([]float64{bus.PCIXBandwidth, bus.PCIXBandwidth, bus.PCIXBandwidth}, geo.ChipBandwidth)
	d, _ = timed(tr, "bus.Allocate", func() error {
		for _, fs := range sets {
			alloc.Allocate(fs)
		}
		return nil
	})
	if len(sets) > 0 {
		l.layer("bus.allocate_ns", float64(d.Nanoseconds())/float64(len(sets)))
	}

	if usesLayout(p.sims) {
		return replayLayout(l, recs, tr)
	}
	return nil
}

func simDur(d time.Duration) sim.Duration { return sim.Duration(d.Nanoseconds()) * sim.Nanosecond }

// timed runs fn inside a span and returns its wall time.
func timed(tr *tracer, name string, fn func() error) (time.Duration, error) {
	t0 := time.Now()
	err := tr.do(name, "layers", fn)
	return time.Since(t0), err
}

func writeDMT(t *trace.Trace, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteDMT(f, trace.WriterOptions{}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// decodeAll streams a .dmt file through NewReader and one Cursor.
func decodeAll(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return 0, err
	}
	r, err := trace.NewReader(f, fi.Size())
	if err != nil {
		return 0, err
	}
	cur := r.Cursor()
	n := 0
	for {
		if _, ok := cur.Next(); !ok {
			break
		}
		n++
	}
	return n, cur.Err()
}

// inflightFlows builds, at each DMA arrival, the set of transfers
// still in flight at full PCI-X speed: the flow sets the controller
// hands the allocator on this trace.
func inflightFlows(t *trace.Trace) [][]bus.Flow {
	geo := memsys.Default()
	type inflight struct {
		end  sim.Time
		flow bus.Flow
	}
	var active []inflight
	var sets [][]bus.Flow
	for _, r := range t.Records {
		if !r.Kind.IsDMA() {
			continue
		}
		keep := active[:0]
		for _, x := range active {
			if x.end > r.Time {
				keep = append(keep, x)
			}
		}
		active = keep
		d := sim.FromSeconds(float64(r.Bytes(geo.PageBytes)) / bus.PCIXBandwidth)
		active = append(active, inflight{r.Time.Add(d), bus.Flow{Bus: int(r.Bus), Chip: int(r.Page) % geo.NumChips}})
		set := make([]bus.Flow, len(active))
		for i, x := range active {
			set[i] = x.flow
		}
		sets = append(sets, set)
	}
	return sets
}

func usesLayout(sims []dmamem.Simulation) bool {
	for _, s := range sims {
		if s.Technique == dmamem.TemporalAlignmentWithLayout {
			return true
		}
	}
	return false
}

// replayLayout feeds the trace's DMA pages to a layout manager and
// rebalances at the PL interval, as the simulator does.
func replayLayout(l *ledger, t *trace.Trace, tr *tracer) error {
	m, err := layout.New(memsys.Default(), layout.DefaultConfig())
	if err != nil {
		return err
	}
	var observeDur, rebalanceDur time.Duration
	var observed, rebalances int
	next := sim.Time(0).Add(m.Interval())
	recs := t.Records
	for i := 0; i < len(recs); {
		end := tr.begin("layout.Observe", "layers", 0)
		t0 := time.Now()
		for ; i < len(recs) && recs[i].Time < next; i++ {
			r := recs[i]
			if !r.Kind.IsDMA() {
				continue
			}
			for pg := 0; pg < int(r.Pages); pg++ {
				m.Observe(r.Page + memsys.PageID(pg))
			}
			observed += int(r.Pages)
		}
		observeDur += time.Since(t0)
		end()
		if i == len(recs) {
			break
		}
		d, _ := timed(tr, "layout.Rebalance", func() error { m.Rebalance(nil); return nil })
		rebalanceDur += d
		rebalances++
		next = next.Add(m.Interval())
	}
	if observed > 0 {
		l.layer("layout.observe_ns", float64(observeDur.Nanoseconds())/float64(observed))
	}
	if rebalances > 0 {
		l.layer("layout.rebalance_ms", ms(rebalanceDur)/float64(rebalances))
	}
	l.layer("layout.migrated_pages", float64(m.MigratedPages))
	return nil
}

func traceDaemon(o *options, l *ledger, p *daemonPrep, cold *atomic.Int64) error {
	zeroLayers(l)
	tr := newTracer()
	seed := coldSeed(o.seed, 1<<20)
	endLayers := tr.begin("layers", "", 0)
	d, err := timed(tr, "server.Generate", func() error {
		st := server.DefaultStorage()
		st.Duration, st.Seed = 4*sim.Millisecond, seed
		if _, err := server.GenerateStorage(st); err != nil {
			return err
		}
		db := server.DefaultDatabase()
		db.Duration, db.Seed = 2*sim.Millisecond, seed
		_, err := server.GenerateDatabase(db)
		return err
	})
	if err != nil {
		return err
	}
	l.layer("server.gen_s", d.Seconds())
	d, err = timed(tr, "synth.Generate", func() error {
		st := synth.DefaultSt()
		st.Duration, st.Seed = 4*sim.Millisecond, seed
		if _, err := synth.GenerateSt(st); err != nil {
			return err
		}
		db := synth.DefaultDb()
		db.St.Duration, db.St.Seed = 2*sim.Millisecond, seed
		_, err := synth.GenerateDb(db)
		return err
	})
	if err != nil {
		return err
	}
	l.layer("synth.gen_s", d.Seconds())

	rep, err := experiments.RunReport(context.Background(), p.hits[0].reportSpec())
	if err != nil {
		return err
	}
	const reps = 200
	d, err = timed(tr, "experiments.CanonicalJSON", func() error {
		for i := 0; i < reps; i++ {
			if _, err := experiments.CanonicalJSON(rep); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.layer("experiments.canonical_json_us", float64(d.Microseconds())/reps)
	d, err = timed(tr, "service.DecodeJob", func() error {
		for i := 0; i < reps; i++ {
			if _, err := service.DecodeJob(p.hits[i%len(p.hits)].body()); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.layer("service.decode_us", float64(d.Microseconds())/reps)
	endLayers()

	settle()
	h0 := readHeap()
	untraced, wall := p.load(o, o.seconds*2/5, nil, cold)
	heap := readHeap().sub(h0)
	if err := verifyLoad(l, untraced); err != nil {
		return err
	}
	var jobs, hits int
	for _, cl := range untraced {
		for _, r := range cl.resps {
			jobs++
			if r.hit {
				hits++
			}
		}
	}
	if jobs == 0 {
		return fmt.Errorf("no job completed")
	}
	l.layer("service.cache_hit_ratio", float64(hits)/float64(jobs))
	l.layer("runtime.gc_cycles", float64(heap.gcs)/wall.Seconds())
	l.layer("runtime.gc_pause_ms", ms(heap.pause)/wall.Seconds())
	l.layer("tracing.untraced_work_per_cpu_s", float64(jobs)/wall.Seconds())

	var traced []*clientLog
	var twall time.Duration
	prof, err := profiled(func() error {
		defer tr.begin("load", "", 0)()
		traced, twall = p.load(o, o.seconds*2/5, tr, cold)
		return nil
	})
	if err != nil {
		return err
	}
	if err := verifyLoad(l, traced); err != nil {
		return err
	}
	if err := recordShares(o, l, prof); err != nil {
		return err
	}
	var queue, run []float64
	tjobs := 0
	for _, cl := range traced {
		queue = append(queue, cl.queue...)
		run = append(run, cl.run...)
		tjobs += len(cl.resps) + len(cl.queue)
	}
	l.layer("service.queue_wait_ms", median(queue))
	l.layer("service.run_ms", median(run))
	l.layer("tracing.traced_work_per_cpu_s", float64(tjobs)/twall.Seconds())
	fmt.Fprintf(o.info, "# tracing overhead: %.1f jobs/s untraced vs %.1f traced; %d cold jobs followed over /events\n",
		float64(jobs)/wall.Seconds(), float64(tjobs)/twall.Seconds(), len(queue))
	return tr.write(outPath(o, "trace.json"))
}
