// Package server models the data servers whose memory traffic the
// paper studies: a storage server (Figure 1's read/write paths over a
// buffer cache, disk array and SAN) and a database server (bufferpool
// plus processor accesses). Running these models produces the OLTP-St
// and OLTP-Db style traces of Table 2, including the client-perceived
// response times that CP-Limit is defined against.
package server

import (
	"fmt"
	"math"

	"dmamem/internal/memsys"
)

// ObjectID names a logical data object (a run of consecutive logical
// blocks requested as a unit: a DB page extent, a file region, ...).
type ObjectID int32

// BufferCache is an object-granularity buffer cache over a contiguous
// region of physical page frames. Objects occupy contiguous frame runs
// (DMA transfers in the traces are contiguous), allocated first-fit and
// reclaimed by evicting least-recently-used objects until a large
// enough run opens up.
//
// Object state lives in dense slices indexed by ObjectID and
// allocated once at the dataset size, with the LRU list threaded
// through them by ID: no map, no per-object allocation and no pointers
// for the garbage collector to trace.
type BufferCache struct {
	frames int // total frames managed

	// Free-run bookkeeping: frameOwner[f] = object occupying frame f,
	// or -1 when free.
	frameOwner []ObjectID
	// free counts the frames with owner -1. When it is below a
	// request no scan can succeed, so findRun answers at once; that
	// keeps evicting toward room linear instead of rescanning every
	// frame after each eviction.
	free int

	// runs[id] is object id's frame run; the object is resident when
	// pages > 0. links[id] are its LRU neighbours (-1 at either end),
	// meaningful only while it is resident. The two are separate
	// slices, not one of 16-byte slots, so that at OLTP-St's 500,000
	// objects each stays under the Go page allocator's 4 MiB chunk: a
	// single 8 MB slice, once freed, left about 3 MB that even
	// debug.FreeOSMemory did not return to the OS (go1.24, linux/amd64).
	runs     []cacheRun
	links    []cacheLink
	resident int
	head     ObjectID // most recently used, -1 when empty
	tail     ObjectID // least recently used, -1 when empty

	// hint is where the next free-run scan starts; it makes sequential
	// fills O(1) amortized instead of quadratic.
	hint int

	// Statistics.
	Hits, Misses int64
	Evictions    int64
}

type cacheRun struct {
	start memsys.PageID
	pages int32
}

type cacheLink struct{ prev, next ObjectID }

// NewBufferCache manages the frame range [0, frames) for objects with
// IDs in [0, objects).
func NewBufferCache(frames, objects int) (*BufferCache, error) {
	if frames <= 0 || frames > math.MaxInt32 {
		return nil, fmt.Errorf("server: cache of %d frames", frames)
	}
	if objects <= 0 || objects > math.MaxInt32 {
		return nil, fmt.Errorf("server: cache over %d objects", objects)
	}
	c := &BufferCache{
		frames:     frames,
		frameOwner: make([]ObjectID, frames),
		free:       frames,
		runs:       make([]cacheRun, objects),
		links:      make([]cacheLink, objects),
		head:       -1,
		tail:       -1,
	}
	for i := range c.frameOwner {
		c.frameOwner[i] = -1
	}
	return c, nil
}

// Len returns the number of resident objects.
func (c *BufferCache) Len() int { return c.resident }

// slot returns id's frame run, panicking on an ID outside
// [0, objects).
func (c *BufferCache) slot(id ObjectID) *cacheRun {
	if uint(id) >= uint(len(c.runs)) {
		panic(fmt.Sprintf("server: object %d outside [0, %d)", id, len(c.runs)))
	}
	return &c.runs[id]
}

// Lookup checks residency. On a hit the object becomes most recently
// used and its frame run is returned.
func (c *BufferCache) Lookup(id ObjectID) (start memsys.PageID, pages int, ok bool) {
	e := c.slot(id)
	if e.pages == 0 {
		c.Misses++
		return 0, 0, false
	}
	c.Hits++
	if c.head != id {
		c.unlink(id)
		c.pushFront(id)
	}
	return e.start, int(e.pages), true
}

// Insert caches an object of the given size, evicting LRU objects as
// needed, and returns the frame run it now occupies. Inserting an
// object larger than the whole cache or one that is already resident
// is a caller bug and panics.
func (c *BufferCache) Insert(id ObjectID, pages int) memsys.PageID {
	if pages <= 0 || pages > c.frames {
		panic(fmt.Sprintf("server: Insert(%d, %d pages) in %d-frame cache", id, pages, c.frames))
	}
	if c.slot(id).pages != 0 {
		panic(fmt.Sprintf("server: Insert of resident object %d", id))
	}
	start, ok := c.findRun(pages)
	for !ok {
		if c.tail < 0 {
			panic("server: no run and nothing to evict")
		}
		c.evict(c.tail)
		start, ok = c.findRun(pages)
	}
	for f := 0; f < pages; f++ {
		c.frameOwner[int(start)+f] = id
	}
	c.free -= pages
	c.runs[id] = cacheRun{start, int32(pages)}
	c.resident++
	c.pushFront(id)
	return start
}

// Remove drops an object if resident; it reports whether it was.
func (c *BufferCache) Remove(id ObjectID) bool {
	if c.slot(id).pages == 0 {
		return false
	}
	c.evict(id)
	c.Evictions-- // explicit removal is not an eviction
	return true
}

// HitRatio returns hits/(hits+misses), or 0 before any lookup.
func (c *BufferCache) HitRatio() float64 {
	total := c.Hits + c.Misses
	if total == 0 {
		return 0
	}
	return float64(c.Hits) / float64(total)
}

// findRun locates a run of n free frames, scanning circularly from the
// last allocation point (next fit). On success the hint advances past
// the run.
func (c *BufferCache) findRun(n int) (memsys.PageID, bool) {
	if c.hint >= c.frames {
		c.hint = 0
	}
	if c.free < n {
		return 0, false
	}
	// Two passes: hint..end, then 0..hint+n (runs do not wrap).
	for pass := 0; pass < 2; pass++ {
		start, end := c.hint, c.frames
		if pass == 1 {
			start, end = 0, c.hint+n-1
			if end > c.frames {
				end = c.frames
			}
		}
		run := 0
		for f := start; f < end; f++ {
			if c.frameOwner[f] == -1 {
				run++
				if run == n {
					c.hint = f + 1
					return memsys.PageID(f - n + 1), true
				}
			} else {
				run = 0
			}
		}
	}
	return 0, false
}

func (c *BufferCache) evict(id ObjectID) {
	e := &c.runs[id]
	for f := 0; f < int(e.pages); f++ {
		c.frameOwner[int(e.start)+f] = -1
	}
	c.free += int(e.pages)
	c.unlink(id)
	e.pages = 0
	c.resident--
	c.Evictions++
}

func (c *BufferCache) unlink(id ObjectID) {
	e := &c.links[id]
	if e.prev >= 0 {
		c.links[e.prev].next = e.next
	} else {
		c.head = e.next
	}
	if e.next >= 0 {
		c.links[e.next].prev = e.prev
	} else {
		c.tail = e.prev
	}
}

func (c *BufferCache) pushFront(id ObjectID) {
	c.links[id] = cacheLink{-1, c.head}
	if c.head >= 0 {
		c.links[c.head].prev = id
	}
	c.head = id
	if c.tail < 0 {
		c.tail = id
	}
}

// checkInvariants verifies internal consistency; tests call it.
func (c *BufferCache) checkInvariants() error {
	owned := 0
	for f, id := range c.frameOwner {
		if id == -1 {
			continue
		}
		owned++
		e := c.runs[id]
		if e.pages == 0 {
			return fmt.Errorf("frame %d owned by nonresident object %d", f, id)
		}
		if f < int(e.start) || f >= int(e.start)+int(e.pages) {
			return fmt.Errorf("frame %d outside run of object %d", f, id)
		}
	}
	if c.free != c.frames-owned {
		return fmt.Errorf("free count %d, but %d of %d frames are unowned", c.free, c.frames-owned, c.frames)
	}
	listed := 0
	prev := ObjectID(-1)
	for id := c.head; id >= 0; id = c.links[id].next {
		e := c.runs[id]
		if e.pages == 0 {
			return fmt.Errorf("nonresident object %d in LRU list", id)
		}
		if c.links[id].prev != prev {
			return fmt.Errorf("object %d links back to %d, not %d", id, c.links[id].prev, prev)
		}
		if listed++; listed > c.resident {
			return fmt.Errorf("LRU list longer than %d resident objects", c.resident)
		}
		owned -= int(e.pages)
		prev = id
	}
	if c.tail != prev {
		return fmt.Errorf("tail is %d, list ends at %d", c.tail, prev)
	}
	if listed != c.resident {
		return fmt.Errorf("LRU list has %d entries, %d resident", listed, c.resident)
	}
	if owned != 0 {
		return fmt.Errorf("frame ownership does not match entry sizes (residue %d)", owned)
	}
	return nil
}
