package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSolveRefusesPortfolio: "portfolio" named the concurrent racing
// composite, "ml-adaptive" the learned QAOA-vs-GW gate and "sdp-gw" gw
// under a second name, until each was deleted; a submission naming one
// in either role now gets the registry's unknown-solver error, as HTTP
// 400.
func TestSolveRefusesPortfolio(t *testing.T) {
	s, err := New(Config{GlobalParallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, name := range []string{"portfolio", "ml-adaptive", "sdp-gw"} {
		for _, role := range []string{"solver", "merge"} {
			body := `{"graph":"4 4\n0 1 1\n1 2 1\n2 3 1\n0 3 1\n","` + role + `":"` + name + `"}`
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/solve", strings.NewReader(body)))
			var eb errorBody
			if err := json.NewDecoder(rec.Body).Decode(&eb); err != nil {
				t.Fatal(err)
			}
			if rec.Code != http.StatusBadRequest || !strings.Contains(eb.Error, `unknown solver "`+name+`"`) {
				t.Fatalf("%s as %s: HTTP %d %q, want 400 with the unknown-solver error", name, role, rec.Code, eb.Error)
			}
		}
	}
}

// TestRestorePortfolioJobs: testdata/jobs-portfolio.json was written by
// a server that still registered "portfolio": one done job and one job
// parked queued by a drain. On restore the done job still answers its
// stored result under its id, the queued one fails with the
// unknown-solver error when it comes up to run, and the table is kept,
// not quarantined.
func TestRestorePortfolioJobs(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "jobs-portfolio.json"))
	if err != nil {
		t.Fatal(err)
	}
	var fixture persistedState
	if err := json.Unmarshal(data, &fixture); err != nil {
		t.Fatal(err)
	}
	var done, queued persistedJob
	for _, pj := range fixture.Jobs {
		if pj.Request.Solver != "portfolio" {
			t.Fatalf("fixture job %s names solver %q", pj.ID, pj.Request.Solver)
		}
		switch pj.State {
		case JobDone:
			done = pj
		case JobQueued:
			queued = pj
		}
	}
	if done.Result == nil || queued.ID == "" {
		t.Fatalf("fixture lacks a done and a queued job: %+v", fixture.Jobs)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, jobsFile)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{GlobalParallelism: 1, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.PersistErr(); err != nil {
		t.Fatalf("restore reported %v", err)
	}
	st, err := s.Job(done.ID)
	if err != nil || st.State != JobDone || st.Result == nil ||
		st.Result.Spins != done.Result.Spins || st.Result.Value != done.Result.Value {
		t.Fatalf("done job %s restored as %+v, %v", done.ID, st, err)
	}
	st = waitDone(t, s, queued.ID)
	if st.State != JobFailed || !strings.Contains(st.Error, `unknown solver "portfolio"`) {
		t.Fatalf("queued job %s settled as %s (err %q), want failed with the unknown-solver error",
			queued.ID, st.State, st.Error)
	}
	if _, err := os.Stat(path + ".corrupt"); !os.IsNotExist(err) {
		t.Fatalf("job table quarantined (stat err %v)", err)
	}
	if err := s.PersistErr(); err != nil {
		t.Fatalf("after the failed job: %v", err)
	}
}
