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

// objectID names a logical data object (a run of consecutive logical
// blocks requested as a unit: a DB page extent, a file region, ...).
type objectID int32

// bufferCache is an object-granularity buffer cache over a contiguous
// region of physical page frames. Objects occupy contiguous frame runs
// (DMA transfers in the traces are contiguous), allocated first-fit and
// reclaimed by evicting least-recently-used objects until a large
// enough run opens up.
//
// Object state lives in an index by objectID, with the LRU list
// threaded through it by ID: no map, no per-object allocation. The
// index is paged: each page holds indexPageLen consecutive IDs and is
// allocated when one of them is first inserted, so the index costs
// what the cache has held, not the whole ID range.
type bufferCache struct {
	frames int // total frames managed

	// Free-run bookkeeping: frameOwner[f] = object occupying frame f,
	// or -1 when free.
	frameOwner []objectID
	// free counts the frames with owner -1. When it is below a
	// request no scan can succeed, so findRun answers at once; that
	// keeps evicting toward room linear instead of rescanning every
	// frame after each eviction.
	free int

	// index[id>>indexShift] is the page holding object id, nil until an
	// ID in it is inserted. An object is resident when its entry's
	// pages > 0.
	index    []*indexPage
	objects  int
	resident int
	head     objectID // most recently used, -1 when empty
	tail     objectID // least recently used, -1 when empty

	// hint is where the next free-run scan starts; it makes sequential
	// fills O(1) amortized instead of quadratic.
	hint int
}

// indexShift sets the index page to 1024 IDs, 16 KB.
const (
	indexShift   = 10
	indexPageLen = 1 << indexShift
)

type indexPage [indexPageLen]cacheEntry

// cacheEntry is an object's frame run and its LRU neighbours (-1 at
// either end); the links mean something only while it is resident.
type cacheEntry struct {
	start      memsys.PageID
	pages      int32
	prev, next objectID
}

// newBufferCache manages the frame range [0, frames) for objects with
// IDs in [0, objects).
func newBufferCache(frames, objects int) (*bufferCache, error) {
	if frames <= 0 || frames > math.MaxInt32 {
		return nil, fmt.Errorf("server: cache of %d frames", frames)
	}
	if objects <= 0 || objects > math.MaxInt32 {
		return nil, fmt.Errorf("server: cache over %d objects", objects)
	}
	c := &bufferCache{
		frames:     frames,
		frameOwner: make([]objectID, frames),
		free:       frames,
		index:      make([]*indexPage, (objects+indexPageLen-1)>>indexShift),
		objects:    objects,
		head:       -1,
		tail:       -1,
	}
	for i := range c.frameOwner {
		c.frameOwner[i] = -1
	}
	return c, nil
}

// page returns the index page holding id, nil if none has been
// allocated, panicking on an ID outside [0, objects).
func (c *bufferCache) page(id objectID) *indexPage {
	if uint(id) >= uint(c.objects) {
		panic(fmt.Sprintf("server: object %d outside [0, %d)", id, c.objects))
	}
	return c.index[id>>indexShift]
}

// entry returns id's entry, allocating its page if need be.
func (c *bufferCache) entry(id objectID) *cacheEntry {
	p := c.page(id)
	if p == nil {
		p = new(indexPage)
		c.index[id>>indexShift] = p
	}
	return &p[id&(indexPageLen-1)]
}

// at returns the entry of an ID whose page exists: a resident object.
func (c *bufferCache) at(id objectID) *cacheEntry {
	return &c.index[id>>indexShift][id&(indexPageLen-1)]
}

// lookup checks residency. On a hit the object becomes most recently
// used and its frame run is returned.
func (c *bufferCache) lookup(id objectID) (start memsys.PageID, pages int, ok bool) {
	p := c.page(id)
	if p == nil {
		return 0, 0, false
	}
	e := &p[id&(indexPageLen-1)]
	if e.pages == 0 {
		return 0, 0, false
	}
	if c.head != id {
		c.unlink(id)
		c.pushFront(id)
	}
	return e.start, int(e.pages), true
}

// insert caches an object of the given size, evicting LRU objects as
// needed, and returns the frame run it now occupies. Inserting an
// object larger than the whole cache or one that is already resident
// is a caller bug and panics.
func (c *bufferCache) insert(id objectID, pages int) memsys.PageID {
	if pages <= 0 || pages > c.frames {
		panic(fmt.Sprintf("server: Insert(%d, %d pages) in %d-frame cache", id, pages, c.frames))
	}
	e := c.entry(id)
	if e.pages != 0 {
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
	e.start, e.pages = start, int32(pages)
	c.resident++
	c.pushFront(id)
	return start
}

// fill inserts IDs 0, 1, 2, ... into an empty cache, sized by pages,
// until the next would not fit in the frames left or the IDs run out,
// and returns how many it inserted. It leaves what as many Inserts
// would, in one pass: the runs laid end to end from frame 0, ID 0
// least recently used.
func (c *bufferCache) fill(pages func(objectID) int) int {
	if c.resident != 0 || c.hint != 0 {
		panic("server: fill of a cache already used")
	}
	// The fill holds at most one object per frame; its index pages
	// come in one allocation.
	chunk := make([]indexPage, (min(c.objects, c.frames)+indexPageLen-1)>>indexShift)
	used, n := 0, 0
	var page *indexPage
	for ; n < c.objects; n++ {
		id := objectID(n)
		p := pages(id)
		if p <= 0 {
			panic(fmt.Sprintf("server: fill with object %d of %d pages", id, p))
		}
		if used+p > c.frames {
			break
		}
		if n&(indexPageLen-1) == 0 {
			page = &chunk[n>>indexShift]
			c.index[n>>indexShift] = page
		}
		page[n&(indexPageLen-1)] = cacheEntry{start: memsys.PageID(used), pages: int32(p), prev: id + 1, next: id - 1}
		for f := used; f < used+p; f++ {
			c.frameOwner[f] = id
		}
		used += p
	}
	if n > 0 {
		c.head, c.tail = objectID(n-1), 0
		c.at(c.head).prev = -1
	}
	c.resident, c.free, c.hint = n, c.frames-used, used
	return n
}

// findRun locates a run of n free frames, scanning circularly from the
// last allocation point (next fit). On success the hint advances past
// the run.
func (c *bufferCache) findRun(n int) (memsys.PageID, bool) {
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

func (c *bufferCache) evict(id objectID) {
	e := c.at(id)
	for f := 0; f < int(e.pages); f++ {
		c.frameOwner[int(e.start)+f] = -1
	}
	c.free += int(e.pages)
	c.unlink(id)
	e.pages = 0
	c.resident--
}

func (c *bufferCache) unlink(id objectID) {
	e := c.at(id)
	if e.prev >= 0 {
		c.at(e.prev).next = e.next
	} else {
		c.head = e.next
	}
	if e.next >= 0 {
		c.at(e.next).prev = e.prev
	} else {
		c.tail = e.prev
	}
}

func (c *bufferCache) pushFront(id objectID) {
	e := c.at(id)
	e.prev, e.next = -1, c.head
	if c.head >= 0 {
		c.at(c.head).prev = id
	}
	c.head = id
	if c.tail < 0 {
		c.tail = id
	}
}

// checkInvariants verifies internal consistency; tests call it.
func (c *bufferCache) checkInvariants() error {
	owned := 0
	for f, id := range c.frameOwner {
		if id == -1 {
			continue
		}
		owned++
		if c.page(id) == nil {
			return fmt.Errorf("frame %d owned by object %d, whose index page is missing", f, id)
		}
		e := c.at(id)
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
	prev := objectID(-1)
	for id := c.head; id >= 0; id = c.at(id).next {
		if c.page(id) == nil || c.at(id).pages == 0 {
			return fmt.Errorf("nonresident object %d in LRU list", id)
		}
		if c.at(id).prev != prev {
			return fmt.Errorf("object %d links back to %d, not %d", id, c.at(id).prev, prev)
		}
		if listed++; listed > c.resident {
			return fmt.Errorf("LRU list longer than %d resident objects", c.resident)
		}
		owned -= int(c.at(id).pages)
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
