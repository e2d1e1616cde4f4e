package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dmamem/internal/experiments"
	"dmamem/internal/server/service"
	"dmamem/internal/sim"
)

// daemon workload: an in-process service on a loopback listener,
// loaded in a closed loop by one client per CPU. Most jobs repeat a
// spec warmed during set-up (cache hits: the service layer is nearly
// all their cost); one in coldEvery is a cold job with a fresh seed,
// cycling through the Table 2 workloads x schemes at golden sizes (the
// simulation is nearly all its cost).

// jobSpec is one report job as the daemon's JSON schema spells it.
type jobSpec struct {
	Workload string
	Scheme   string `json:",omitempty"`
	Seed     uint64 `json:",omitempty"`
}

func (j jobSpec) body() []byte {
	b, err := json.Marshal(j)
	if err != nil {
		panic(err) // a struct of strings and ints always marshals
	}
	return b
}

// reportSpec is the experiments spec the daemon resolves j to.
func (j jobSpec) reportSpec() experiments.ReportSpec {
	return experiments.ReportSpec{
		Suite:    experiments.SuiteSpec{Duration: 4 * sim.Millisecond, DbDuration: 2 * sim.Millisecond, Seed: j.Seed},
		Workload: j.Workload,
		Scheme:   j.Scheme,
	}
}

// tableSpecs is every Table 2 workload x scheme at one seed (0 = the
// golden seed).
func tableSpecs(seed uint64) []jobSpec {
	var out []jobSpec
	for _, w := range experiments.WorkloadNames() {
		for _, s := range experiments.ReportSchemes() {
			out = append(out, jobSpec{Workload: w, Scheme: s, Seed: seed})
		}
	}
	return out
}

// coldSeed is the seed of the k-th cold job: distinct from the golden
// seed, from the set-ups' seeds (2 up to 2 x setupReps) and from every
// other cold job in the run.
func coldSeed(runSeed uint64, k int) uint64 { return runSeed*1_000_000 + 1000 + uint64(k) }

// serviceUnderTest is a running daemon with its HTTP front end.
type serviceUnderTest struct {
	d      *service.Daemon
	srv    *http.Server
	url    string
	client *http.Client
	done   chan error
}

func startService(clients int) (*serviceUnderTest, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &serviceUnderTest{
		d:    service.New(service.Config{Workers: clients}),
		url:  "http://" + ln.Addr().String(),
		done: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     clients,
			MaxIdleConnsPerHost: clients,
		}},
	}
	s.srv = &http.Server{Handler: s.d.Handler()}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// stop shuts the listener and the daemon down and waits for both.
func (s *serviceUnderTest) stop() error {
	s.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.d.Close()
	return err
}

// response is one answered submission.
type response struct {
	body    []byte
	hit     bool // X-Dmamem-Cache: hit
	latency time.Duration
}

// submit posts one job with ?wait=1 and reads the whole answer.
func (s *serviceUnderTest) submit(body []byte) (response, error) {
	t0 := time.Now()
	resp, err := s.client.Post(s.url+"/v1/jobs?wait=1", "application/json", bytes.NewReader(body))
	if err != nil {
		return response{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	lat := time.Since(t0)
	if err != nil {
		return response{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return response{}, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	return response{body: b, hit: resp.Header.Get("X-Dmamem-Cache") == "hit", latency: lat}, nil
}

// eventTimes submits a job without waiting and follows its /events
// stream, stamping each lifecycle event as it reaches the client.
func (s *serviceUnderTest) eventTimes(body []byte) (submitted, running, done time.Time, err error) {
	resp, err := s.client.Post(s.url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return
	}
	var st service.JobStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	submitted = time.Now()
	if err != nil {
		return
	}
	if resp.StatusCode != http.StatusAccepted {
		err = fmt.Errorf("HTTP %d submitting %s", resp.StatusCode, body)
		return
	}
	ev, err := s.client.Get(s.url + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		return
	}
	defer ev.Body.Close()
	sc := bufio.NewScanner(ev.Body)
	for sc.Scan() {
		var e service.Event
		if err = json.Unmarshal(sc.Bytes(), &e); err != nil {
			return
		}
		switch e.State {
		case service.StatusRunning:
			running = time.Now()
		case service.StatusDone:
			done = time.Now()
		case service.StatusFailed, service.StatusCanceled:
			err = fmt.Errorf("job %s: %s %s", st.ID, e.State, e.Detail)
		}
	}
	if err == nil {
		err = sc.Err()
	}
	if err == nil && (running.IsZero() || done.IsZero()) {
		err = fmt.Errorf("job %s: event stream ended without running and done", st.ID)
	}
	return
}

// daemonPrep is the daemon after set-up: warmed with the golden specs,
// whose answers are the expected bytes of every hit.
type daemonPrep struct {
	svc   *serviceUnderTest
	hits  []jobSpec
	want  map[jobSpec][]byte
	nproc int
}

// startWarm starts a daemon and warms it with the Table 2 specs at
// seed (0 = golden), returning it with its answers and the time taken:
// one set-up.
func startWarm(nproc int, seed uint64) (*serviceUnderTest, []response, time.Duration, error) {
	settle()
	t0 := time.Now()
	svc, err := startService(nproc)
	if err != nil {
		return nil, nil, 0, err
	}
	var resps []response
	for _, j := range tableSpecs(seed) {
		resp, err := svc.submit(j.body())
		if err != nil {
			svc.stop()
			return nil, nil, 0, fmt.Errorf("warming %+v: %w", j, err)
		}
		resps = append(resps, resp)
	}
	return svc, resps, time.Since(t0), nil
}

// timeDaemonSetups times n set-ups warmed at the fresh seeds first,
// first+1, ..., stopping each daemon after use.
func timeDaemonSetups(nproc, n int, first uint64) ([]float64, error) {
	var setups []float64
	for r := 0; r < n; r++ {
		svc, _, d, err := startWarm(nproc, first+uint64(r))
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		if err := svc.stop(); err != nil {
			return nil, err
		}
	}
	return setups, nil
}

// prepareDaemon times setupReps daemon set-ups with fresh traces; the
// last warms the golden seed, is kept, and its answers must equal the
// goldens.
func prepareDaemon(o *options, l *ledger) (*daemonPrep, []float64, error) {
	p := &daemonPrep{nproc: runtime.GOMAXPROCS(0), hits: tableSpecs(0), want: map[jobSpec][]byte{}}
	setups, err := timeDaemonSetups(p.nproc, o.size.setupReps-1, 2)
	if err != nil {
		return nil, nil, err
	}
	svc, resps, d, err := startWarm(p.nproc, 0)
	if err != nil {
		return nil, nil, err
	}
	p.svc = svc
	setups = append(setups, d.Seconds())
	for i, j := range p.hits {
		p.want[j] = resps[i].body
		if err := checkDaemonGolden(o, l, j, resps[i].body); err != nil {
			p.svc.stop()
			return nil, nil, err
		}
	}
	return p, setups, nil
}

func checkDaemonGolden(o *options, l *ledger, j jobSpec, got []byte) error {
	want, err := os.ReadFile(goldenPath(o, j.Workload, j.Scheme))
	if err != nil {
		return err
	}
	l.check(bytes.Equal(got, want), "daemon answer for %s/%s differs from its golden", j.Workload, j.Scheme)
	return nil
}

type coldAnswer struct {
	job  jobSpec
	body []byte
}

// clientLog is one client's view of the load phase.
type clientLog struct {
	resps []response
	wrong []string     // answers that failed a check
	colds []coldAnswer // cold answers kept for local re-computation
	errs  []error      // transport or HTTP failures
	queue []float64    // traced: client-observed queue wait, ms
	run   []float64    // traced: client-observed run time, ms
}

// load drives the closed loop for d with one client per CPU and
// returns the logs and the wall time until the last client finished.
func (p *daemonPrep) load(o *options, d time.Duration, tr *tracer, cold *atomic.Int64) ([]*clientLog, time.Duration) {
	logs := make([]*clientLog, p.nproc)
	var wg sync.WaitGroup
	t0 := time.Now()
	deadline := t0.Add(d)
	for c := 0; c < p.nproc; c++ {
		logs[c] = &clientLog{}
		wg.Add(1)
		go func(c int, cl *clientLog) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(o.seed, uint64(c)))
			for i := 0; time.Now().Before(deadline); i++ {
				var j jobSpec
				isCold := i%o.size.coldEvery == o.size.coldEvery-1
				if isCold {
					k := int(cold.Add(1) - 1)
					j = p.hits[k%len(p.hits)]
					j.Seed = coldSeed(o.seed, k)
				} else {
					j = p.hits[rng.IntN(len(p.hits))]
				}
				end := tr.begin(fmt.Sprintf("job %s/%s", j.Workload, j.Scheme), "load", c+1)
				if isCold && tr != nil {
					sub, running, done, err := p.svc.eventTimes(j.body())
					end()
					if err != nil {
						cl.errs = append(cl.errs, err)
						continue
					}
					cl.queue = append(cl.queue, ms(running.Sub(sub)))
					cl.run = append(cl.run, ms(done.Sub(running)))
					continue
				}
				resp, err := p.svc.submit(j.body())
				end()
				if err != nil {
					cl.errs = append(cl.errs, err)
					continue
				}
				cl.resps = append(cl.resps, resp)
				if want, ok := p.want[j]; ok {
					if !bytes.Equal(resp.body, want) {
						cl.wrong = append(cl.wrong, fmt.Sprintf("%+v", j))
					}
				} else if len(cl.colds) < 6 {
					cl.colds = append(cl.colds, coldAnswer{j, resp.body})
				}
			}
		}(c, logs[c])
	}
	wg.Wait()
	return logs, time.Since(t0)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// verifyLoad counts every answer against the ledger and re-computes the
// kept cold answers locally through RunReport.
func verifyLoad(l *ledger, logs []*clientLog) error {
	for _, cl := range logs {
		for _, err := range cl.errs {
			l.check(false, "daemon request: %v", err)
		}
		for _, w := range cl.wrong {
			l.check(false, "daemon answer for %s differs from the first answer for that spec", w)
		}
		for range len(cl.resps) + len(cl.queue) - len(cl.wrong) {
			l.check(true, "")
		}
		for _, c := range cl.colds {
			want, err := reportJSON(c.job.reportSpec())
			if err != nil {
				return err
			}
			l.check(bytes.Equal(c.body, want), "cold answer for %+v differs from a local RunReport", c.job)
		}
	}
	return nil
}

func runDaemon(o *options, l *ledger) error {
	p, setups, err := prepareDaemon(o, l)
	if err != nil {
		return err
	}
	defer p.svc.stop()
	var cold atomic.Int64
	if o.traced {
		return traceDaemon(o, l, p, &cold)
	}
	settle()
	if err := resetPeakRSS(); err != nil {
		return fmt.Errorf("resetting the peak RSS: %w", err)
	}
	h0, c0 := readHeap(), cpuTime()
	logs, wall := p.load(o, o.seconds, nil, &cold)
	heap, cpu := readHeap().sub(h0), cpuTime()-c0
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	if err := verifyLoad(l, logs); err != nil {
		return err
	}
	// More set-ups after the load spread setup_s over the run.
	after, err := timeDaemonSetups(p.nproc, o.size.setupReps, uint64(o.size.setupReps)+1)
	if err != nil {
		return err
	}
	setups = append(setups, after...)
	var all, hits, colds []float64
	for _, cl := range logs {
		for _, r := range cl.resps {
			all = append(all, ms(r.latency))
			if r.hit {
				hits = append(hits, ms(r.latency))
			} else {
				colds = append(colds, ms(r.latency))
			}
		}
	}
	if len(all) == 0 {
		return fmt.Errorf("no job completed")
	}
	tl := tail(0.99)
	tv, beyond := tl.of(all)
	l.set("setup_s", median(setups), "s")
	l.set("work_per_cpu_s", float64(len(all))/cpu.Seconds(), "1/cpu_s")
	l.set("p50_ms", median(all), "ms")
	l.set("tail_ms", tv, "ms")
	l.set("peak_rss_mb", rss, "MB")
	l.set("allocs_per_request", float64(heap.mallocs)/float64(len(all)), "count")
	ht, hb := tail(0.99).of(hits)
	ct, cb := tail(0.90).of(colds)
	fmt.Fprintf(o.info, "# %d jobs from %d clients in %.1fs; all: tail %s with %d beyond; hits (by X-Dmamem-Cache): %d, p50 %.3f ms, p99 %.3f ms with %d beyond; cold: %d, p50 %.1f ms, p90 %.1f ms with %d beyond; %d set-ups, median %.3f s\n",
		len(all), p.nproc, wall.Seconds(), tl, beyond, len(hits), median(hits), ht, hb, len(colds), median(colds), ct, cb, len(setups), median(setups))
	return nil
}
