package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// tracer records spans around the benchmark's own calls into each
// layer (name, start, end, parent, thread) in memory and writes them
// at exit as Chrome trace-event JSON, which Perfetto opens. A nil
// tracer records nothing.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

type span struct {
	name, parent string
	tid          int
	start, end   time.Duration
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns the function that closes it.
func (t *tracer) begin(name, parent string, tid int) func() {
	if t == nil {
		return func() {}
	}
	start := time.Since(t.t0)
	return func() {
		end := time.Since(t.t0)
		t.mu.Lock()
		t.spans = append(t.spans, span{name: name, parent: parent, tid: tid, start: start, end: end})
		t.mu.Unlock()
	}
}

// do runs fn inside a span.
func (t *tracer) do(name, parent string, fn func() error) error {
	end := t.begin(name, parent, 0)
	defer end()
	return fn()
}

// write stores the spans as a Chrome trace-event file.
func (t *tracer) write(path string) error {
	type event struct {
		Name string            `json:"name"`
		Cat  string            `json:"cat"`
		Ph   string            `json:"ph"`
		Ts   float64           `json:"ts"`
		Dur  float64           `json:"dur"`
		Pid  int               `json:"pid"`
		Tid  int               `json:"tid"`
		Args map[string]string `json:"args,omitempty"`
	}
	t.mu.Lock()
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		events[i] = event{
			Name: s.name, Cat: "perfbench", Ph: "X", Pid: 1, Tid: s.tid,
			Ts:  float64(s.start) / 1e3,
			Dur: float64(s.end-s.start) / 1e3,
		}
		if s.parent != "" {
			events[i].Args = map[string]string{"parent": s.parent}
		}
	}
	t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
