package pmemobj

import (
	"sync"
	"sync/atomic"
)

// laneQueue dispenses the pool's lanes. Each worker holds a hint to a
// per-slot atomic lane cache: release parks the lane in the worker's
// slot with one CAS, and the next acquire by the same worker takes it
// back with one swap — no shared state touched at all on the repeat
// path. Under oversubscription (more workers than lanes, or a worker
// migrating between slots) acquire falls back to scanning all slots
// and finally to a buffered channel, a fair FIFO semaphore that blocks
// until a lane comes back.
//
// Lane ownership lives in exactly one of three places at any time: the
// channel, a slot, or a holder. Hints themselves carry only a slot
// index and are recycled through a sync.Pool — the GC dropping one
// never strands a lane.
//
// The handoff race — a releaser parking a lane in a slot no one will
// look at while an acquirer commits to blocking on the channel — is
// closed by a waiters counter: acquirers advertise themselves before
// their final slot scan, and a releaser that parked a lane re-checks
// the counter afterwards, retaking and forwarding the lane to the
// channel if anyone might be scanning. Either the waiter's scan (which
// follows its counter increment) observes the parked lane, or the
// releaser's counter load (which follows its park) observes the
// waiter and forwards.
type laneQueue struct {
	ch       chan int
	slots    []atomic.Int64 // lane+1, or 0 when empty
	slotMask uint32
	waiters  atomic.Int32
	rotor    atomic.Uint32
	hints    sync.Pool // *laneHint
}

type laneHint struct {
	slot uint32
}

func newLaneQueue(nLanes int) *laneQueue {
	q := &laneQueue{ch: make(chan int, nLanes)}
	for i := 0; i < nLanes; i++ {
		q.ch <- i
	}
	nslots := 1
	for nslots < nLanes {
		nslots <<= 1
	}
	q.slots = make([]atomic.Int64, nslots)
	q.slotMask = uint32(nslots - 1)
	return q
}

func (q *laneQueue) getHint() *laneHint {
	if v := q.hints.Get(); v != nil {
		return v.(*laneHint)
	}
	return &laneHint{slot: (q.rotor.Add(1) - 1) & q.slotMask}
}

// acquire returns a lane index, blocking until one is available.
func (q *laneQueue) acquire() int {
	hint := q.getHint()
	slot := hint.slot
	q.hints.Put(hint)
	if v := q.slots[slot].Swap(0); v != 0 {
		metLaneAffinity.Inc()
		return int(v - 1)
	}
	select {
	case lane := <-q.ch:
		metLaneChannel.Inc()
		return lane
	default:
	}
	// Slow path: advertise, then scan every slot once before parking on
	// the channel. The counter order pairs with release's
	// park-then-check.
	q.waiters.Add(1)
	defer q.waiters.Add(-1)
	for i := range q.slots {
		if v := q.slots[i].Swap(0); v != 0 {
			metLaneScan.Inc()
			return int(v - 1)
		}
	}
	metLaneChannel.Inc()
	return <-q.ch
}

// release returns a lane, preferring the worker's affine slot.
func (q *laneQueue) release(lane int) {
	if q.waiters.Load() == 0 {
		hint := q.getHint()
		slot := hint.slot
		q.hints.Put(hint)
		if q.slots[slot].CompareAndSwap(0, int64(lane+1)) {
			metLanePark.Inc()
			if q.waiters.Load() > 0 {
				// A waiter may have finished scanning this slot before
				// the park landed; retake and forward via the channel.
				if v := q.slots[slot].Swap(0); v != 0 {
					metLaneForward.Inc()
					q.ch <- int(v - 1)
				}
			}
			return
		}
	}
	q.ch <- lane
}
