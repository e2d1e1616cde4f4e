// Package server models the data servers whose memory traffic the
// paper studies: a storage server (Figure 1's read/write paths over a
// buffer cache, disk array and SAN) and a database server (bufferpool
// plus processor accesses). Running these models produces the OLTP-St
// and OLTP-Db style traces of Table 2, including the client-perceived
// response times that CP-Limit is defined against.
package server

import (
	"fmt"

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

	// Resident objects, LRU-threaded.
	entries map[ObjectID]*cacheEntry
	head    *cacheEntry // most recently used
	tail    *cacheEntry // least recently used

	// hint is where the next free-run scan starts; it makes sequential
	// fills O(1) amortized instead of quadratic.
	hint int

	// Statistics.
	Hits, Misses int64
	Evictions    int64
}

type cacheEntry struct {
	id         ObjectID
	start      memsys.PageID
	pages      int
	prev, next *cacheEntry
}

// NewBufferCache manages the frame range [0, frames).
func NewBufferCache(frames int) (*BufferCache, error) {
	if frames <= 0 {
		return nil, fmt.Errorf("server: cache of %d frames", frames)
	}
	c := &BufferCache{
		frames:     frames,
		frameOwner: make([]ObjectID, frames),
		free:       frames,
		entries:    make(map[ObjectID]*cacheEntry),
	}
	for i := range c.frameOwner {
		c.frameOwner[i] = -1
	}
	return c, nil
}

// Len returns the number of resident objects.
func (c *BufferCache) Len() int { return len(c.entries) }

// Lookup checks residency. On a hit the object becomes most recently
// used and its frame run is returned.
func (c *BufferCache) Lookup(id ObjectID) (start memsys.PageID, pages int, ok bool) {
	e, ok := c.entries[id]
	if !ok {
		c.Misses++
		return 0, 0, false
	}
	c.Hits++
	c.touch(e)
	return e.start, e.pages, true
}

// Insert caches an object of the given size, evicting LRU objects as
// needed, and returns the frame run it now occupies. Inserting an
// object larger than the whole cache or one that is already resident
// is a caller bug and panics.
func (c *BufferCache) Insert(id ObjectID, pages int) memsys.PageID {
	if pages <= 0 || pages > c.frames {
		panic(fmt.Sprintf("server: Insert(%d, %d pages) in %d-frame cache", id, pages, c.frames))
	}
	if _, ok := c.entries[id]; ok {
		panic(fmt.Sprintf("server: Insert of resident object %d", id))
	}
	start, ok := c.findRun(pages)
	for !ok {
		if c.tail == nil {
			panic("server: no run and nothing to evict")
		}
		c.evict(c.tail)
		start, ok = c.findRun(pages)
	}
	e := &cacheEntry{id: id, start: start, pages: pages}
	for f := 0; f < pages; f++ {
		c.frameOwner[int(start)+f] = id
	}
	c.free -= pages
	c.entries[id] = e
	c.pushFront(e)
	return start
}

// Remove drops an object if resident; it reports whether it was.
func (c *BufferCache) Remove(id ObjectID) bool {
	e, ok := c.entries[id]
	if !ok {
		return false
	}
	c.evict(e)
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

func (c *BufferCache) evict(e *cacheEntry) {
	for f := 0; f < e.pages; f++ {
		c.frameOwner[int(e.start)+f] = -1
	}
	c.free += e.pages
	c.unlink(e)
	delete(c.entries, e.id)
	c.Evictions++
}

func (c *BufferCache) touch(e *cacheEntry) {
	if c.head == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}

func (c *BufferCache) unlink(e *cacheEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *BufferCache) pushFront(e *cacheEntry) {
	e.next = c.head
	e.prev = nil
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
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
		e, ok := c.entries[id]
		if !ok {
			return fmt.Errorf("frame %d owned by nonresident object %d", f, id)
		}
		if f < int(e.start) || f >= int(e.start)+e.pages {
			return fmt.Errorf("frame %d outside run of object %d", f, id)
		}
	}
	if c.free != c.frames-owned {
		return fmt.Errorf("free count %d, but %d of %d frames are unowned", c.free, c.frames-owned, c.frames)
	}
	listed := 0
	seen := map[ObjectID]bool{}
	for e := c.head; e != nil; e = e.next {
		if seen[e.id] {
			return fmt.Errorf("object %d appears twice in LRU list", e.id)
		}
		seen[e.id] = true
		listed++
		owned -= e.pages
		if e.next == nil && c.tail != e {
			return fmt.Errorf("tail pointer wrong")
		}
	}
	if listed != len(c.entries) {
		return fmt.Errorf("LRU list has %d entries, map has %d", listed, len(c.entries))
	}
	if owned != 0 {
		return fmt.Errorf("frame ownership does not match entry sizes (residue %d)", owned)
	}
	return nil
}
