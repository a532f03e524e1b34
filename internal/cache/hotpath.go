// Hot-path support structures: the closure-free completion interface, the
// pooled waiter chains that replace per-request callback slices, and the
// open-addressed line map behind the PQ presence index and the MSHR index.
// All three exist so the steady-state per-access path allocates nothing and
// no lookup walks a queue or the MSHR file.
package cache

// DoneSink receives request completions without a per-request closure: the
// requester registers itself once (an interface header, no allocation) and
// demultiplexes completions by token. Tokens are opaque to the cache — the
// core encodes ROB slots and store record indices, a cache level encodes
// the missing line address. Closure-style completion (Req.OnDone) remains
// supported for tests and ad-hoc callers; the simulation engine uses sinks
// exclusively so issuing a request allocates nothing.
type DoneSink interface {
	// ReqDone delivers the completion for the request identified by token;
	// cycle is when the data is available to the requester.
	ReqDone(token, cycle uint64)
}

// waiterNode is one completion subscriber in an intrusive singly-linked
// chain (load combining on an RQ entry, merged misses on an MSHR). Nodes
// live in the cache's pool and are addressed by index+1 (0 = nil), so a
// zeroed mshr{} or Req{} naturally means "no waiters".
type waiterNode struct {
	sink  DoneSink
	token uint64
	fn    func(cycle uint64)
	next  int32 // index+1 of the next node; 0 terminates
}

// allocWaiter takes a node off the free list (growing the pool outside
// steady state) and returns its index+1 handle.
func (c *Cache) allocWaiter() int32 {
	if c.wfree != 0 {
		id := c.wfree
		c.wfree = c.wpool[id-1].next
		return id
	}
	c.wpool = append(c.wpool, waiterNode{})
	return int32(len(c.wpool))
}

// freeWaiter returns one node to the free list.
func (c *Cache) freeWaiter(id int32) {
	w := &c.wpool[id-1]
	w.sink, w.fn = nil, nil
	w.next = c.wfree
	c.wfree = id
}

// notifyWaiter fires one node's completion.
func (c *Cache) notifyWaiter(id int32, cycle uint64) {
	w := &c.wpool[id-1]
	if w.fn != nil {
		w.fn(cycle)
	} else if w.sink != nil {
		w.sink.ReqDone(w.token, cycle)
	}
}

// chainWaiter appends a callback to the chain rooted at (*head, *tail).
func (c *Cache) chainWaiter(head, tail *int32, sink DoneSink, token uint64, fn func(uint64)) {
	id := c.allocWaiter()
	w := &c.wpool[id-1]
	w.sink, w.token, w.fn, w.next = sink, token, fn, 0
	if *tail != 0 {
		c.wpool[*tail-1].next = id
	} else {
		*head = id
	}
	*tail = id
}

// spliceChain moves the chain (srcHead, srcTail) to the end of the chain
// rooted at (*head, *tail), leaving the source empty.
func (c *Cache) spliceChain(head, tail *int32, srcHead, srcTail int32) {
	if srcHead == 0 {
		return
	}
	if *tail != 0 {
		c.wpool[*tail-1].next = srcHead
	} else {
		*head = srcHead
	}
	*tail = srcTail
}

// fireChain notifies every waiter in FIFO order and frees the nodes.
func (c *Cache) fireChain(head int32, cycle uint64) {
	for id := head; id != 0; {
		next := c.wpool[id-1].next
		c.notifyWaiter(id, cycle)
		c.freeWaiter(id)
		id = next
	}
}

// lineMap is an open-addressed map from line address to a nonzero value.
// Two indexes share it: the PQ presence index counts queued entries per
// line (add/remove; duplicates are counted rather than stored twice, which
// keeps the orphan-corruption fault plan — many entries for line 0 — from
// overflowing the table), and the MSHR index maps a line to its slot+1
// (put/del). Linear probing over a power-of-two table sized at
// construction (4x the bound, so the load factor stays low); deletion uses
// backward-shift compaction so no tombstones accumulate.
type lineMap struct {
	keys []uint64
	vals []uint32 // 0 marks an empty slot
	mask uint64
	used int
}

func (s *lineMap) init(bound int) {
	n := 8
	for n < 4*bound {
		n <<= 1
	}
	s.keys = make([]uint64, n)
	s.vals = make([]uint32, n)
	s.mask = uint64(n - 1)
	s.used = 0
}

// slot mixes the key (line addresses are strided, not uniform) into a
// table index.
func (s *lineMap) slot(k uint64) uint64 {
	k *= 0x9e3779b97f4a7c15
	k ^= k >> 29
	return k & s.mask
}

// find returns the table index holding k, or the empty index that ends
// its probe chain.
func (s *lineMap) find(k uint64) uint64 {
	i := s.slot(k)
	for s.vals[i] != 0 && s.keys[i] != k {
		i = (i + 1) & s.mask
	}
	return i
}

// get returns k's value, or 0 when k is absent.
func (s *lineMap) get(k uint64) uint32 { return s.vals[s.find(k)] }

// put sets k's value (v must be nonzero).
func (s *lineMap) put(k uint64, v uint32) {
	if i := s.find(k); s.vals[i] != 0 {
		s.vals[i] = v
	} else {
		s.insertAt(i, k, v)
	}
}

// add counts one more occurrence of k.
func (s *lineMap) add(k uint64) {
	if i := s.find(k); s.vals[i] != 0 {
		s.vals[i]++
	} else {
		s.insertAt(i, k, 1)
	}
}

// remove counts one occurrence of k away, deleting the key at zero.
func (s *lineMap) remove(k uint64) {
	i := s.find(k)
	switch {
	case s.vals[i] > 1:
		s.vals[i]--
	case s.vals[i] == 1:
		s.deleteAt(i)
	}
}

// del deletes k whatever its value.
func (s *lineMap) del(k uint64) {
	if i := s.find(k); s.vals[i] != 0 {
		s.deleteAt(i)
	}
}

func (s *lineMap) insertAt(i, k uint64, v uint32) {
	s.keys[i], s.vals[i] = k, v
	s.used++
	if 2*s.used >= len(s.keys) {
		s.grow()
	}
}

// deleteAt empties index i, pulling displaced entries over the hole so
// probe chains stay contiguous.
func (s *lineMap) deleteAt(i uint64) {
	s.vals[i] = 0
	s.used--
	j := i
	for {
		j = (j + 1) & s.mask
		if s.vals[j] == 0 {
			return
		}
		home := s.slot(s.keys[j])
		if (j-home)&s.mask >= (j-i)&s.mask {
			s.keys[i], s.vals[i] = s.keys[j], s.vals[j]
			s.vals[j] = 0
			i = j
		}
	}
}

// grow doubles the table (reached only by deliberate overfill, e.g. the
// pq-orphan fault plan pushing far past the configured bound).
func (s *lineMap) grow() {
	ok, ov := s.keys, s.vals
	n := 2 * len(ok)
	s.keys = make([]uint64, n)
	s.vals = make([]uint32, n)
	s.mask = uint64(n - 1)
	s.used = 0
	for i, v := range ov {
		if v != 0 {
			s.insertAt(s.find(ok[i]), ok[i], v)
		}
	}
}
