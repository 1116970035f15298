package serve

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"testing"

	"qaoa2/internal/rng"
)

// evictOracle is the retention rule as it was before eviction kept its
// own order: every eviction collects the terminal jobs, sorts the
// unpinned ones by doneSeq and evicts the oldest beyond the bound, and
// drops the oldest tombstone by scanning them all. It models only what
// the rule reads: each job's state, pins and doneSeq.
type evictOracle struct {
	retain    int
	doneCount int
	jobs      map[string]*oracleJob
	evicted   map[string]int // id → tombstone seq
}

type oracleJob struct {
	terminal bool
	subs     int
	doneSeq  int
}

func (o *evictOracle) settle(id string) {
	j := o.jobs[id]
	o.doneCount++
	j.doneSeq = o.doneCount
	j.terminal = true
	o.evict()
}

func (o *evictOracle) evict() {
	var terminal, evictable []string
	for id, j := range o.jobs {
		if j.terminal {
			terminal = append(terminal, id)
			if j.subs == 0 {
				evictable = append(evictable, id)
			}
		}
	}
	excess := len(terminal) - o.retain
	if excess <= 0 {
		return
	}
	if excess > len(evictable) {
		excess = len(evictable)
	}
	sort.Slice(evictable, func(a, b int) bool { return o.jobs[evictable[a]].doneSeq < o.jobs[evictable[b]].doneSeq })
	for _, id := range evictable[:excess] {
		o.evicted[id] = o.jobs[id].doneSeq
		delete(o.jobs, id)
	}
	for len(o.evicted) > o.retain {
		oldestID, oldest := "", 0
		for id, seq := range o.evicted {
			if oldestID == "" || seq < oldest {
				oldestID, oldest = id, seq
			}
		}
		delete(o.evicted, oldestID)
	}
}

// TestEvictionMatchesOracle runs random sequences of settles (fresh
// jobs, resubmissions of evicted ones, retries of failed ones), stream
// attaches that spare a job and stream closes through a Server and the
// oracle, and requires the same live jobs and the same tombstones,
// with the same seqs, after every step.
func TestEvictionMatchesOracle(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		r := rng.New(seed)
		retain := 1 + int(r.Uint64()%6)
		s, err := New(Config{RetainJobs: retain, GlobalParallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		o := &evictOracle{retain: retain, jobs: map[string]*oracleJob{}, evicted: map[string]int{}}
		var pins []string
		for step := 0; step < 400; step++ {
			id := fmt.Sprintf("j%d", r.Uint64()%(3*uint64(retain)+4))
			state := JobDone
			if r.Uint64()%3 == 0 {
				state = JobFailed
			}
			var op string
			switch k := r.Uint64() % 10; {
			case k < 5:
				op = "settle " + id
				s.mu.Lock()
				j, live := s.jobs[id]
				switch {
				case !live:
					// Submit's fresh-job path, settled at once.
					s.forgetLocked(id)
					j = &job{id: id, wake: make(chan struct{}), done: make(chan struct{})}
					s.jobs[id] = j
					delete(o.evicted, id)
					o.jobs[id] = &oracleJob{}
				case j.state == JobFailed:
					// Submit's retry path, settled at once.
					s.settled.remove(j)
					j.done = make(chan struct{})
					o.jobs[id].terminal = false
				default:
					s.mu.Unlock()
					continue // a cached result: nothing settles
				}
				j.state = state
				s.settleLocked(j)
				s.mu.Unlock()
				o.settle(id)
			case k < 8:
				op = "attach " + id
				if _, pinned := s.addStreamRef(id); pinned {
					pins = append(pins, id)
					o.jobs[id].subs++
				}
			case len(pins) > 0:
				i := int(r.Uint64() % uint64(len(pins)))
				id = pins[i]
				pins = slices.Delete(pins, i, i+1)
				op = "close " + id
				s.releaseStreamRef(id)
				o.jobs[id].subs--
				o.evict()
			default:
				continue
			}
			s.mu.Lock()
			live := slices.Sorted(maps.Keys(s.jobs))
			graves := map[string]int{}
			for id, tb := range s.evicted {
				graves[id] = tb.seq
			}
			listed, ordered := 0, true
			for j, prev := s.settled.head, 0; j != nil; j = j.next {
				listed++
				ordered = ordered && j.doneSeq > prev
				prev = j.doneSeq
			}
			listN, heapN := s.settled.n, len(s.graves)
			s.mu.Unlock()
			terminal := 0
			for _, j := range o.jobs {
				if j.terminal {
					terminal++
				}
			}
			switch {
			case !slices.Equal(live, slices.Sorted(maps.Keys(o.jobs))):
				t.Fatalf("seed %d step %d (%s): jobs %v, oracle %v", seed, step, op, live, slices.Sorted(maps.Keys(o.jobs)))
			case !maps.Equal(graves, o.evicted):
				t.Fatalf("seed %d step %d (%s): tombstones %v, oracle %v", seed, step, op, graves, o.evicted)
			case listed != terminal || listN != terminal || !ordered || heapN != len(graves):
				t.Fatalf("seed %d step %d (%s): %d listed (count %d, ordered %v) for %d terminal jobs, %d in the heap for %d tombstones",
					seed, step, op, listed, listN, ordered, terminal, heapN, len(graves))
			}
		}
	}
}
