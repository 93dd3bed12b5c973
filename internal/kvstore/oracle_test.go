package kvstore

import (
	"bytes"
	"sort"

	"repro/internal/pmemobj"
)

// The locked readers are the test oracle for the snapshot path. They
// read the persistent bucket heads under the shard lock, not the
// published volatile roots, so they share with Get and Scan only the
// entry accesses — every one through the same protection hooks — and a
// verdict or a row on which they disagree is a fault in one of the two.

// getLocked looks key up from the shard's persistent bucket head, the
// shard lock excluding writers while the head is read and the chain
// walked.
func (s *Store) getLocked(c *ctx, sh *shard, dst []byte, h uint64, key []byte) ([]byte, bool, error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()

	hp := c.Direct(sh.hdr)
	n := c.Load(hp, shNBuckets)
	if n == 0 {
		return dst, false, c.Take()
	}
	buckets := c.LoadOid(hp, shBuckets)
	head := c.LoadOid(c.Direct(buckets), int64(s.bucketOf(h, n))*s.oidSize)
	dst, ok := s.appendValue(c, dst, head, key)
	return dst, ok, c.Take()
}

// lockedScan visits every key in [lo, hi) in ascending order, as Scan
// does. Each shard is frozen under its lock just long enough to load
// its persistent bucket heads and copy its in-range pairs out (values
// too — once the lock drops a writer may free the entry); the pairs are
// then sorted and visited.
func (s *Store) lockedScan(lo, hi []byte, fn func(key, value []byte) bool) error {
	type pair struct{ key, val []byte }
	var pairs []pair
	c := newCtx(s.rt)
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		root, err := s.loadRoot(c, sh)
		if err == nil {
			s.walkRoot(c, root, func(_ uint64, _ pmemobj.Oid, ep uint64, key []byte) {
				if inRange(key, lo, hi) {
					vlen := c.Load(ep, enVLen)
					val := c.LoadBytes(ep, s.entryDataOff()+int64(len(key)), vlen)
					pairs = append(pairs, pair{append([]byte(nil), key...), val})
				}
			})
			err = c.Take()
		}
		sh.mu.Unlock()
		if err != nil {
			return err
		}
	}
	sort.Slice(pairs, func(i, j int) bool { return bytes.Compare(pairs[i].key, pairs[j].key) < 0 })
	for _, p := range pairs {
		if !fn(p.key, p.val) {
			break
		}
	}
	return nil
}
