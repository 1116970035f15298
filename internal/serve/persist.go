package serve

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"qaoa2/internal/graph"
	rt "qaoa2/internal/runtime"
)

// jobsFile is the persisted job table inside Config.StateDir.
const jobsFile = "jobs.json"

// persistedJob is one job's durable record. Events are not persisted —
// a resumed job replays its solve through the checkpoint (restored
// tasks re-emit events with Restored set), so streams reconstruct.
type persistedJob struct {
	ID       string       `json:"id"`
	Request  SolveRequest `json:"request"`
	State    JobState     `json:"state"`
	Error    string       `json:"error,omitempty"`
	Result   *JobResult   `json:"result,omitempty"`
	Priority string       `json:"priority"`
	// Order preserves FIFO position within the lane across restarts.
	Order int `json:"order"`
	// Fingerprint is the graph fingerprint behind ID. A settled job's
	// request holds no graph (stampLocked), so restore keys its record
	// by this; tables written before it existed carry every graph.
	Fingerprint string `json:"fingerprint,omitempty"`
}

// persistedState is the jobs.json schema.
type persistedState struct {
	Version int            `json:"version"`
	Jobs    []persistedJob `json:"jobs"`
}

const persistVersion = 1

// persistLocked marks the job table dirty: the persister goroutine
// snapshots and writes it off the hot path, so no API call ever
// blocks on disk I/O behind s.mu. A nil StateDir makes it a no-op.
// Caller holds mu. Durability points that must not race a process
// exit (drain handoff) call persistNow directly instead.
func (s *Server) persistLocked() {
	if s.cfg.StateDir == "" {
		return
	}
	select {
	case s.persistKick <- struct{}{}:
	default: // a write is already pending; it will see this state
	}
}

// persister serializes job-table writes, coalescing bursts of state
// transitions into one snapshot per write.
func (s *Server) persister() {
	defer s.wg.Done()
	for {
		select {
		case <-s.persistKick:
			s.persistNow()
		case <-s.persistStop:
			// Final write so a kicked-but-unwritten state is not lost.
			s.persistNow()
			return
		}
	}
}

// persistNow snapshots the table under mu, then marshals and writes
// it durably (replaceFile) outside mu. Persistence failures
// are reported through PersistErr rather than failing the solve: the
// in-memory service stays correct, only restart durability degrades.
func (s *Server) persistNow() {
	s.mu.Lock()
	st := s.snapshotLocked()
	s.persistSeq++
	seq := s.persistSeq
	s.mu.Unlock()

	s.persistMu.Lock()
	defer s.persistMu.Unlock()
	if seq < s.persistWritten {
		// A newer snapshot already reached disk (the persister raced a
		// synchronous Drain write): writing this one would roll state
		// back.
		return
	}
	data, err := json.Marshal(st)
	if err != nil {
		s.lastPersistErr = err
		return
	}
	path := filepath.Join(s.cfg.StateDir, jobsFile)
	if err := replaceFile(path, path+".tmp", append(data, '\n')); err != nil {
		s.lastPersistErr = err
		return
	}
	s.persistWritten = seq
	s.lastPersistErr = nil
}

// replaceFile replaces path with data through the temp file tmp: write,
// Sync, close, then rename over path. The Sync puts the bytes on disk
// before the rename can, so a host crash leaves path holding either
// its old contents or data, never an empty or torn file. On any error
// tmp is removed and path is left as it was.
func replaceFile(path, tmp string, data []byte) (err error) {
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			_ = os.Remove(tmp) // best effort: err is the failure to report
		}
	}()
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// snapshotLocked captures the persistable job table. Caller holds mu;
// the referenced requests/results are immutable after creation, so
// the snapshot is safe to marshal outside the lock.
func (s *Server) snapshotLocked() persistedState {
	st := persistedState{Version: persistVersion}
	// Stable order: lane position for queued jobs (including jobs a
	// drain parked back at the front), map order is irrelevant for the
	// rest.
	order := 0
	pos := make(map[string]int)
	for _, lane := range s.lanes {
		for _, j := range lane {
			pos[j.id] = order
			order++
		}
	}
	ids := make([]string, 0, len(s.jobs))
	for id := range s.jobs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		j := s.jobs[id]
		pj := persistedJob{
			ID:          j.id,
			Request:     j.req,
			State:       j.state,
			Result:      j.result,
			Priority:    j.req.Priority,
			Order:       pos[j.id],
			Fingerprint: j.fp,
		}
		if j.err != nil {
			pj.Error = j.err.Error()
		}
		st.Jobs = append(st.Jobs, pj)
	}
	return st
}

// PersistErr reports the most recent job-table write failure (nil when
// healthy); surfaced by the daemon's health endpoint.
func (s *Server) PersistErr() error {
	s.persistMu.Lock()
	defer s.persistMu.Unlock()
	return s.lastPersistErr
}

// restore loads jobs.json: done/failed jobs become cache entries,
// queued and previously running jobs re-enqueue in their persisted
// lane order (their checkpoints make the re-run resume rather than
// recompute). Called from New before the scheduler starts.
//
// Restore is crash-tolerant rather than strict: a daemon must come
// back up after an unclean exit. A stale .tmp from a write cut mid-
// flight is deleted (the rename never happened, so jobs.json still
// holds the previous consistent snapshot); an unreadable or
// wrong-version jobs.json is moved aside to jobs.json.corrupt and the
// daemon starts with an empty table, surfacing the problem through
// PersistErr (/healthz) instead of refusing to boot; individually
// damaged job records are skipped the same way.
func (s *Server) restore() error {
	if s.cfg.StateDir == "" {
		return nil
	}
	if err := os.MkdirAll(s.cfg.StateDir, 0o755); err != nil {
		return fmt.Errorf("serve: state dir: %w", err)
	}
	path := filepath.Join(s.cfg.StateDir, jobsFile)
	// A leftover temp file is a torn write from a crash: the atomic
	// rename never happened, so it carries no committed state.
	os.Remove(path + ".tmp")
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("serve: read job table: %w", err)
	}
	// Requests decode one by one: a record whose text-form graph does
	// not parse is skipped like any other damaged record.
	var st struct {
		Version int `json:"version"`
		Jobs    []struct {
			persistedJob
			Request json.RawMessage `json:"request"`
		} `json:"jobs"`
	}
	if err := json.Unmarshal(data, &st); err != nil {
		return s.quarantine(path, fmt.Errorf("serve: corrupt job table %s: %w", path, err))
	}
	if st.Version != persistVersion {
		return s.quarantine(path, fmt.Errorf("serve: job table version %d, want %d", st.Version, persistVersion))
	}
	var requeue []*job
	var skipErr error
	for _, pj := range st.Jobs {
		if err := json.Unmarshal(pj.Request, &pj.persistedJob.Request); err != nil {
			skipErr = fmt.Errorf("serve: skipped persisted job %s: %w", pj.ID, err)
			continue
		}
		req, err := pj.persistedJob.Request.normalize()
		if err != nil {
			skipErr = fmt.Errorf("serve: skipped persisted job %s: %w", pj.ID, err)
			continue
		}
		// A settled record without a graph is keyed by its fingerprint;
		// any other record builds its graph.
		var g *graph.Graph
		fp := pj.Fingerprint
		if settled := pj.State == JobDone || pj.State == JobFailed; !settled || req.Graph.Nodes != 0 {
			if g, err = req.Graph.Build(); err != nil {
				skipErr = fmt.Errorf("serve: skipped persisted job %s: %w", pj.ID, err)
				continue
			}
			fp = rt.GraphFingerprint(g)
		}
		if got := req.key(fp); got != pj.ID {
			skipErr = fmt.Errorf("serve: skipped persisted job %s: does not match its request (key %s)", pj.ID, got)
			continue
		}
		j := &job{
			id:          pj.ID,
			req:         req,
			g:           g,
			fp:          fp,
			parallelism: s.clampParallelism(req.Parallelism),
			wake:        make(chan struct{}),
			done:        make(chan struct{}),
		}
		switch pj.State {
		case JobDone:
			j.state = JobDone
			j.result = pj.Result
			s.stampLocked(j)
		case JobFailed:
			j.state = JobFailed
			j.err = fmt.Errorf("%s", pj.Error)
			s.stampLocked(j)
		default:
			// Queued and interrupted/crashed running jobs both restart
			// from their checkpoint.
			j.state = JobQueued
			j.order = pj.Order
			requeue = append(requeue, j)
		}
		if dup, ok := s.jobs[j.id]; ok && dup.terminal() {
			// A hand-edited table can repeat an id; the last entry wins,
			// and the one it replaces leaves the eviction order too (or
			// the run queue, below).
			s.settled.remove(dup)
		}
		s.jobs[j.id] = j
	}
	sort.SliceStable(requeue, func(a, b int) bool { return requeue[a].order < requeue[b].order })
	for _, j := range requeue {
		if s.jobs[j.id] != j {
			continue // a later record of the same id replaced it
		}
		s.lanes[laneOf(j.req.Priority)] = append(s.lanes[laneOf(j.req.Priority)], j)
	}
	// A retention bound lowered between generations applies to the
	// restored table too.
	s.evictLocked()
	if skipErr != nil {
		s.persistMu.Lock()
		s.lastPersistErr = skipErr
		s.persistMu.Unlock()
	}
	return nil
}

// quarantine moves an unusable job table aside (jobs.json.corrupt) so
// the daemon boots empty instead of crash-looping, and records the
// cause for /healthz. The corrupt snapshot is preserved for forensics
// and is overwritten by the next quarantine, not accumulated.
func (s *Server) quarantine(path string, cause error) error {
	if err := os.Rename(path, path+".corrupt"); err != nil {
		// Can't move it aside: the next persist would race the broken
		// file. Refuse to start rather than flap.
		return fmt.Errorf("serve: quarantine job table: %w (after %v)", err, cause)
	}
	s.persistMu.Lock()
	s.lastPersistErr = cause
	s.persistMu.Unlock()
	return nil
}
