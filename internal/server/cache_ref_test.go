package server

import (
	"math/rand"
	"slices"
	"testing"
)

// naiveCache is a deliberately plain model of bufferCache's placement
// and replacement rules: an LRU order kept as a slice (least recent
// first), a map of resident runs, and a next-fit scan over the frames
// that always rescans after an eviction. It keeps no free-frame count
// and no ID-indexed table, so it checks that neither changes where an
// object lands or which one is evicted.
type naiveCache struct {
	owner []objectID
	hint  int
	lru   []objectID
	runs  map[objectID][2]int // start, pages

	evicted map[objectID]bool // ever evicted by replacement
}

func newNaiveCache(frames int) *naiveCache {
	n := &naiveCache{owner: make([]objectID, frames), runs: map[objectID][2]int{}, evicted: map[objectID]bool{}}
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

func (n *naiveCache) drop(id objectID) {
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

func (n *naiveCache) insert(id objectID, pages int) int {
	start, ok := n.findRun(pages)
	for !ok {
		n.evicted[n.lru[0]] = true
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

func (n *naiveCache) lookup(id objectID) bool {
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

// lruOrder walks the cache's LRU list from least to most recent,
// stopping one past the resident count should the links cycle.
func lruOrder(c *bufferCache) []objectID {
	var out []objectID
	for id := c.tail; id >= 0 && len(out) <= c.resident; id = c.at(id).prev {
		out = append(out, id)
	}
	return out
}

// TestCacheMatchesNaiveReference drives random Insert/Lookup
// sequences through bufferCache and naiveCache and requires every
// insert to land on the same frame run, every lookup to agree, the
// resident count and LRU order to match throughout, and the final
// frame ownership to be identical. Half the seeds start from a fill of
// the lowest IDs, which the reference inserts one by one. IDs are
// sparse over the whole object range, including both of its ends and
// both sides of the first index page boundary, so the paged index is
// exercised far from zero and across pages; re-inserts of evicted IDs
// are required to occur.
func TestCacheMatchesNaiveReference(t *testing.T) {
	var reinserts, filled int
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		frames := 16 + rng.Intn(240)
		objects := 1 + rng.Intn(1<<16)
		c, err := newBufferCache(frames, objects)
		if err != nil {
			t.Fatal(err)
		}
		ref := newNaiveCache(frames)
		maxPages := 1 + rng.Intn(frames/4)
		if seed%2 == 0 {
			sizes := make([]int, objects)
			for i := range sizes {
				sizes[i] = 1 + rng.Intn(maxPages)
			}
			n := c.fill(func(id objectID) int { return sizes[id] })
			for id := 0; id < n; id++ {
				ref.insert(objectID(id), sizes[id])
			}
			if n < objects && c.free >= sizes[n] {
				t.Fatalf("seed %d: fill stopped at ID %d of %d pages with %d frames free", seed, n, sizes[n], c.free)
			}
			if c.hint != ref.hint || !slices.Equal(lruOrder(c), ref.lru) {
				t.Fatalf("seed %d: fill of %d IDs left hint %d and LRU order %v, inserts hint %d and %v",
					seed, n, c.hint, lruOrder(c), ref.hint, ref.lru)
			}
			filled += n
		}
		ids := []objectID{0, objectID(objects - 1)}
		for _, id := range []int{indexPageLen - 1, indexPageLen} {
			if id < objects {
				ids = append(ids, objectID(id))
			}
		}
		for len(ids) < 120 {
			ids = append(ids, objectID(rng.Intn(objects)))
		}
		for op := 0; op < 3000; op++ {
			id := ids[rng.Intn(len(ids))]
			_, _, hit := c.lookup(id)
			if hit != ref.lookup(id) {
				t.Fatalf("seed %d op %d: lookup(%d) disagrees", seed, op, id)
			}
			if !hit && rng.Intn(2) == 0 {
				if ref.evicted[id] {
					reinserts++
				}
				pages := 1 + rng.Intn(maxPages)
				got, want := c.insert(id, pages), ref.insert(id, pages)
				if int(got) != want {
					t.Fatalf("seed %d op %d: Insert(%d, %d) at frame %d, reference %d",
						seed, op, id, pages, got, want)
				}
			}
			if c.resident != len(ref.lru) {
				t.Fatalf("seed %d op %d: Len %d, reference %d", seed, op, c.resident, len(ref.lru))
			}
			if op%16 == 0 && !slices.Equal(lruOrder(c), ref.lru) {
				t.Fatalf("seed %d op %d: LRU order %v, reference %v", seed, op, lruOrder(c), ref.lru)
			}
		}
		if err := c.checkInvariants(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !slices.Equal(lruOrder(c), ref.lru) {
			t.Fatalf("seed %d: LRU order %v, reference %v", seed, lruOrder(c), ref.lru)
		}
		if c.hint != ref.hint {
			t.Fatalf("seed %d: next-fit hint %d, reference %d", seed, c.hint, ref.hint)
		}
		for f, id := range c.frameOwner {
			if ref.owner[f] != id {
				t.Fatalf("seed %d: frame %d owned by %d, reference %d", seed, f, id, ref.owner[f])
			}
		}
	}
	if reinserts == 0 || filled == 0 {
		t.Fatalf("sequence never exercised re-inserts after eviction (%d) or fills (%d)", reinserts, filled)
	}
}
