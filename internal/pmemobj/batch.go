package pmemobj

import "repro/internal/pmem"

// commitScratch is the per-call working set of the batched commit
// pipeline: a flush accumulator bound to this pool's device and a
// reusable word buffer for bulk log writes. Instances are recycled
// through Pool.scratch so the commit path does not allocate.
type commitScratch struct {
	ac    *pmem.FlushAccum
	words []uint64
}

func (p *Pool) getScratch() *commitScratch {
	return p.scratch.Get().(*commitScratch)
}

func (p *Pool) putScratch(s *commitScratch) {
	s.words = s.words[:0]
	p.scratch.Put(s)
}

// fence orders all previously issued flushes. The fence is shared with
// concurrent committers through the device's epoch combiner; a return
// still guarantees that every flush this goroutine issued before the
// call is durable.
func (p *Pool) fence() { p.dev.GroupFence() }

// persist is Flush+fence through the group combiner.
func (p *Pool) persist(off, size uint64) {
	p.dev.Flush(off, size)
	p.fence()
}
