package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Counters is a named set of monotonic event counters — the service
// daemon's observability vocabulary (jobs submitted, cache hits,
// simulations run, ...). The zero value is ready to use and all
// methods are safe for concurrent use. Counters are observability
// only: nothing in the simulator reads them back.
type Counters struct {
	mu sync.Mutex
	m  map[string]uint64
}

// Add increments the named counter by n.
func (c *Counters) Add(name string, n uint64) {
	c.mu.Lock()
	if c.m == nil {
		c.m = map[string]uint64{}
	}
	c.m[name] += n
	c.mu.Unlock()
}

// snapshot returns a copy of every counter.
func (c *Counters) snapshot() map[string]uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]uint64, len(c.m))
	for k, v := range c.m {
		out[k] = v
	}
	return out
}

// Render writes the counters in the Prometheus text exposition style,
// one "prefix_name value" line per counter in sorted name order, so
// the output is stable and diffable.
func (c *Counters) Render(prefix string) string {
	snap := c.snapshot()
	names := make([]string, 0, len(snap))
	for k := range snap {
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, k := range names {
		fmt.Fprintf(&b, "%s%s %d\n", prefix, k, snap[k])
	}
	return b.String()
}
