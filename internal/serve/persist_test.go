package serve

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// solveWait submits one request and blocks until it settles.
func solveWait(t *testing.T, s *Server, req SolveRequest) JobStatus {
	t.Helper()
	st, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := s.Done(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	<-ch
	st, err = s.Job(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// seedStateDir runs one solve against a StateDir-backed server and
// shuts it down cleanly, leaving a consistent jobs.json behind.
// Returns the dir and the completed job's ID.
func seedStateDir(t *testing.T) (string, string) {
	t.Helper()
	dir := t.TempDir()
	s, err := New(Config{GlobalParallelism: 2, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	st := solveWait(t, s, ringReq(10, 41))
	s.Close()
	if _, err := os.Stat(filepath.Join(dir, jobsFile)); err != nil {
		t.Fatalf("no job table persisted: %v", err)
	}
	return dir, st.ID
}

// TestRestoreTruncatedTable: a jobs.json cut mid-write (power loss
// after a non-atomic fs flush) must not brick the daemon. The broken
// table is quarantined, the server boots empty, surfaces the cause
// through PersistErr, and keeps solving.
func TestRestoreTruncatedTable(t *testing.T) {
	dir, _ := seedStateDir(t)
	path := filepath.Join(dir, jobsFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := New(Config{GlobalParallelism: 2, StateDir: dir})
	if err != nil {
		t.Fatalf("truncated table refused boot: %v", err)
	}
	defer s.Close()
	if err := s.PersistErr(); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("PersistErr %v, want a corrupt-table note", err)
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Fatalf("broken table not quarantined: %v", err)
	}
	if jobs := s.Jobs(); len(jobs) != 0 {
		t.Fatalf("restored %d jobs from a truncated table", len(jobs))
	}
	// The recovered daemon still solves and persists.
	if st := solveWait(t, s, ringReq(10, 42)); st.State != JobDone {
		t.Fatalf("post-recovery solve: %+v", st)
	}
}

// TestRestoreGarbageTable: arbitrary bytes in jobs.json recover the
// same way as a truncation.
func TestRestoreGarbageTable(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, jobsFile)
	if err := os.WriteFile(path, []byte("\x00\xffnot json at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{GlobalParallelism: 1, StateDir: dir})
	if err != nil {
		t.Fatalf("garbage table refused boot: %v", err)
	}
	defer s.Close()
	if s.PersistErr() == nil {
		t.Fatal("garbage table recovered silently")
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Fatalf("garbage not quarantined: %v", err)
	}
}

// TestRestoreVersionMismatch: an incompatible schema version is
// quarantined, not fatal.
func TestRestoreVersionMismatch(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, jobsFile)
	if err := os.WriteFile(path, []byte(`{"version":999,"jobs":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{GlobalParallelism: 1, StateDir: dir})
	if err != nil {
		t.Fatalf("future-version table refused boot: %v", err)
	}
	defer s.Close()
	if err := s.PersistErr(); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("PersistErr %v, want a version note", err)
	}
}

// TestRestoreStaleTmp: a crash between the temp write and the rename
// leaves jobs.json.tmp behind; restore deletes it and restores the
// last committed snapshot intact.
func TestRestoreStaleTmp(t *testing.T) {
	dir, id := seedStateDir(t)
	tmp := filepath.Join(dir, jobsFile+".tmp")
	if err := os.WriteFile(tmp, []byte(`{"version":1,"jobs":[half a wri`), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{GlobalParallelism: 2, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("stale temp file survived restore: %v", err)
	}
	st, err := s.Job(id)
	if err != nil || st.State != JobDone || st.Result == nil {
		t.Fatalf("committed snapshot lost: %+v, %v", st, err)
	}
	if err := s.PersistErr(); err != nil {
		t.Fatalf("clean recovery flagged an error: %v", err)
	}
}

// TestRestoreSkipsBadEntry: a tampered record (ID no longer matches
// its request fingerprint) and a record whose graph no longer parses
// are dropped; intact records restore.
func TestRestoreSkipsBadEntry(t *testing.T) {
	dir, id := seedStateDir(t)
	path := filepath.Join(dir, jobsFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Duplicate the good record under a fabricated ID: fingerprint
	// verification must reject the clone and keep the original.
	forged := strings.Replace(string(data), `"id":"`+id+`"`,
		`"id":"deadbeef"`, 1)
	record := strings.TrimSuffix(strings.TrimSpace(forged[strings.Index(forged, `{"id":"deadbeef"`):]), "]}")
	unreadable := regexp.MustCompile(`"graph":"[^"]*"`).ReplaceAllString(
		strings.Replace(record, "deadbeef", "0badc0de", 1), `"graph":"3 1\n0 0 1\n"`)
	doctored := strings.TrimSuffix(strings.TrimSpace(string(data)), "]}") +
		"," + record + "," + unreadable + "]}"
	if err := os.WriteFile(path, []byte(doctored), 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := New(Config{GlobalParallelism: 2, StateDir: dir})
	if err != nil {
		t.Fatalf("bad entry refused boot: %v", err)
	}
	defer s.Close()
	if st, err := s.Job(id); err != nil || st.State != JobDone {
		t.Fatalf("intact record lost: %+v, %v", st, err)
	}
	for _, bad := range []string{"deadbeef", "0badc0de"} {
		if _, err := s.Job(bad); err == nil {
			t.Fatalf("damaged record %s restored", bad)
		}
	}
	if err := s.PersistErr(); err == nil || !strings.Contains(err.Error(), "skipped") {
		t.Fatalf("PersistErr %v, want a skipped-entry note", err)
	}
}

// TestRestoreRepeatedID: a table that lists one job twice (hand-edited)
// restores it once — the last record wins — and the job it replaced
// leaves the eviction order too, so a retention bound of one keeps the
// job live instead of evicting it for its own stale copy.
func TestRestoreRepeatedID(t *testing.T) {
	dir, id := seedStateDir(t)
	path := filepath.Join(dir, jobsFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	record := strings.TrimSuffix(strings.TrimSpace(text[strings.Index(text, `{"id":"`+id+`"`):]), "]}")
	doubled := strings.TrimSuffix(strings.TrimSpace(text), "]}") + "," + record + "]}"
	if err := os.WriteFile(path, []byte(doubled), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{GlobalParallelism: 2, StateDir: dir, RetainJobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.mu.Lock()
	_, live := s.jobs[id]
	listed := s.settled.n
	s.mu.Unlock()
	if !live || listed != 1 {
		t.Fatalf("job live %v with %d terminal jobs listed; want live and 1", live, listed)
	}
}

// TestReplaceFileFailureLeavesNoTemp provokes the one rename failure a
// test can set up portably — a non-empty directory where the target
// file goes — in both durable writers: the job table (persistNow) and
// the checkpoint import. Each must report the failure, leave no .tmp
// or .import file behind, and leave what held the target's place as it
// was. (A real power cut between Sync and rename cannot be staged in a
// test; the Sync is what keeps the renamed file from being empty.)
func TestReplaceFileFailureLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const id = "0123456789abcdef"
	blocked := func(name string) string {
		p := filepath.Join(dir, name)
		if err := os.MkdirAll(p, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(p, "old"), []byte("old"), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	table, ckpt := blocked(jobsFile), blocked(id+".ckpt")

	s.persistNow()
	if s.PersistErr() == nil {
		t.Fatal("job table write over a directory reported no error")
	}
	if err := s.ImportCheckpoint(id, []byte(`{"version":2,"graph":"g","seed":1}`+"\n")); err == nil {
		t.Fatal("checkpoint import over a directory reported no error")
	}
	for _, p := range []string{table, ckpt} {
		if got, err := os.ReadFile(filepath.Join(p, "old")); err != nil || string(got) != "old" {
			t.Fatalf("%s/old = %q, %v after the failed write; want it untouched", p, got, err)
		}
	}
	left, _ := filepath.Glob(filepath.Join(dir, "*.tmp"))
	imports, _ := filepath.Glob(filepath.Join(dir, "*.import"))
	if left = append(left, imports...); len(left) > 0 {
		t.Fatalf("failed writes left %v behind", left)
	}
}
