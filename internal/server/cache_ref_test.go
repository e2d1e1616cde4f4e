package server

import (
	"math/rand"
	"testing"
)

// naiveCache is a deliberately plain model of BufferCache's placement
// rules: an LRU order kept as a slice (least recent first) and a
// next-fit scan over the frames that always rescans after an eviction.
// It keeps no free-frame count, so it checks that the cache's early
// "no run" answer never changes where an object lands.
type naiveCache struct {
	owner []ObjectID
	hint  int
	lru   []ObjectID
	runs  map[ObjectID][2]int // start, pages
}

func newNaiveCache(frames int) *naiveCache {
	n := &naiveCache{owner: make([]ObjectID, frames), runs: map[ObjectID][2]int{}}
	for i := range n.owner {
		n.owner[i] = -1
	}
	return n
}

func (n *naiveCache) findRun(pages int) (int, bool) {
	if n.hint >= len(n.owner) {
		n.hint = 0
	}
	for pass := 0; pass < 2; pass++ {
		start, end := n.hint, len(n.owner)
		if pass == 1 {
			start, end = 0, min(n.hint+pages-1, len(n.owner))
		}
		run := 0
		for f := start; f < end; f++ {
			if n.owner[f] != -1 {
				run = 0
				continue
			}
			if run++; run == pages {
				n.hint = f + 1
				return f - pages + 1, true
			}
		}
	}
	return 0, false
}

func (n *naiveCache) drop(id ObjectID) {
	r := n.runs[id]
	for f := r[0]; f < r[0]+r[1]; f++ {
		n.owner[f] = -1
	}
	delete(n.runs, id)
	for i, o := range n.lru {
		if o == id {
			n.lru = append(n.lru[:i], n.lru[i+1:]...)
			break
		}
	}
}

func (n *naiveCache) insert(id ObjectID, pages int) int {
	start, ok := n.findRun(pages)
	for !ok {
		n.drop(n.lru[0])
		start, ok = n.findRun(pages)
	}
	for f := start; f < start+pages; f++ {
		n.owner[f] = id
	}
	n.runs[id] = [2]int{start, pages}
	n.lru = append(n.lru, id)
	return start
}

func (n *naiveCache) lookup(id ObjectID) bool {
	if _, ok := n.runs[id]; !ok {
		return false
	}
	for i, o := range n.lru {
		if o == id {
			n.lru = append(append(n.lru[:i:i], n.lru[i+1:]...), id)
			break
		}
	}
	return true
}

// TestCacheMatchesNaiveReference drives random Insert/Lookup/Remove
// sequences through BufferCache and naiveCache and requires every
// insert to land on the same frame run, every lookup to agree, and the
// final frame ownership to be identical.
func TestCacheMatchesNaiveReference(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		frames := 16 + rng.Intn(240)
		c, err := NewBufferCache(frames)
		if err != nil {
			t.Fatal(err)
		}
		ref := newNaiveCache(frames)
		maxPages := 1 + rng.Intn(frames/4)
		for op := 0; op < 3000; op++ {
			id := ObjectID(rng.Intn(120))
			switch rng.Intn(4) {
			case 0, 1:
				_, _, hit := c.Lookup(id)
				if hit != ref.lookup(id) {
					t.Fatalf("seed %d op %d: lookup(%d) disagrees", seed, op, id)
				}
				if !hit {
					pages := 1 + rng.Intn(maxPages)
					got, want := c.Insert(id, pages), ref.insert(id, pages)
					if int(got) != want {
						t.Fatalf("seed %d op %d: Insert(%d, %d) at frame %d, reference %d",
							seed, op, id, pages, got, want)
					}
				}
			case 2:
				removed := c.Remove(id)
				_, had := ref.runs[id]
				if removed != had {
					t.Fatalf("seed %d op %d: Remove(%d) = %v, reference resident %v", seed, op, id, removed, had)
				}
				if had {
					ref.drop(id)
				}
			case 3:
				c.Lookup(id)
				ref.lookup(id)
			}
		}
		if err := c.checkInvariants(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for f, id := range c.frameOwner {
			if ref.owner[f] != id {
				t.Fatalf("seed %d: frame %d owned by %d, reference %d", seed, f, id, ref.owner[f])
			}
		}
	}
}
