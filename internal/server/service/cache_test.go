package service

import "testing"

func TestResultCacheLRUEviction(t *testing.T) {
	c := newResultCache(4) // room for two 2-byte results
	c.put("a", []byte("ra"))
	c.put("b", []byte("rb"))
	if got := c.len(); got != 2 {
		t.Fatalf("len = %d, want 2", got)
	}
	// Refresh a, insert c: b is the least recently used and must go.
	if _, ok := c.get("a"); !ok {
		t.Fatal("a missing before eviction")
	}
	c.put("c", []byte("rc"))
	if _, ok := c.get("b"); ok {
		t.Error("b survived eviction past the bound")
	}
	if got, ok := c.get("a"); !ok || string(got) != "ra" {
		t.Errorf("a = %q, %v after eviction", got, ok)
	}
	if got := c.len(); got != 2 {
		t.Errorf("len = %d after eviction, want 2", got)
	}
	// Re-putting an existing key updates in place without growing.
	c.put("a", []byte("RA"))
	if got, _ := c.get("a"); string(got) != "RA" {
		t.Errorf("a = %q after overwrite, want RA", got)
	}
	if got, size := c.len(), c.size(); got != 2 || size != 4 {
		t.Errorf("len = %d, size = %d after overwrite, want 2 and 4", got, size)
	}
}

// TestResultCacheByteBudget holds the cache to its byte budget: one
// large answer evicts as many small ones as it needs room for, and an
// answer larger than the whole budget is not stored at all.
func TestResultCacheByteBudget(t *testing.T) {
	c := newResultCache(10)
	for _, k := range []string{"a", "b", "c", "d", "e"} {
		c.put(k, []byte("xx"))
	}
	if got, size := c.len(), c.size(); got != 5 || size != 10 {
		t.Fatalf("len = %d, size = %d, want 5 and 10", got, size)
	}
	c.put("big", []byte("0123456"))
	if got, size := c.len(), c.size(); got != 2 || size != 9 {
		t.Errorf("after a 7-byte put: len = %d, size = %d, want 2 (big, e) and 9", got, size)
	}
	if _, ok := c.get("e"); !ok {
		t.Error("the most recent small answer was evicted")
	}
	c.put("huge", make([]byte, 11))
	if _, ok := c.get("huge"); ok {
		t.Error("an answer over the whole budget was cached")
	}
	if got, size := c.len(), c.size(); got != 2 || size != 9 {
		t.Errorf("an uncached put changed the cache: len = %d, size = %d", got, size)
	}
}

func TestResultCacheDisabled(t *testing.T) {
	c := newResultCache(0)
	c.put("a", []byte("ra"))
	c.put("empty", nil)
	if _, ok := c.get("a"); ok {
		t.Error("disabled cache returned a hit")
	}
	if got := c.len(); got != 0 {
		t.Errorf("len = %d, want 0", got)
	}
}
