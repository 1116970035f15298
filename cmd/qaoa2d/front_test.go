package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"syscall"
	"testing"
	"time"

	"qaoa2/internal/serve"
)

func TestParseWorkers(t *testing.T) {
	specs, err := parseWorkers("w0=http://a:1, w1=http://b:2/,")
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 || specs[0].Name != "w0" || specs[1].URL != "http://b:2" {
		t.Fatalf("parsed %+v", specs)
	}
	for _, bad := range []string{"", "nourl", "=http://a:1", "w0="} {
		if _, err := parseWorkers(bad); err == nil {
			t.Fatalf("parseWorkers(%q) accepted", bad)
		}
	}
}

// TestFrontDoorEndToEnd boots two worker daemons plus a front door
// through the real CLI entry point and drives jobs through the front:
// the client is a stock serve.Client that cannot tell it from a
// single daemon. One SIGTERM then shuts all three down cleanly.
func TestFrontDoorEndToEnd(t *testing.T) {
	startWorker := func(i int) (string, chan int) {
		ready := make(chan string, 1)
		exit := make(chan int, 1)
		go func() {
			exit <- run([]string{
				"-addr", "127.0.0.1:0", "-dir", t.TempDir(), "-parallelism", "2",
			}, io.Discard, os.Stderr, ready)
		}()
		select {
		case addr := <-ready:
			return addr, exit
		case code := <-exit:
			t.Fatalf("worker %d exited immediately with %d", i, code)
			return "", nil
		}
	}
	w0, exit0 := startWorker(0)
	w1, exit1 := startWorker(1)

	ready := make(chan string, 1)
	exitF := make(chan int, 1)
	go func() {
		exitF <- run([]string{
			"-addr", "127.0.0.1:0",
			"-front", fmt.Sprintf("w0=http://%s,w1=http://%s", w0, w1),
		}, io.Discard, os.Stderr, ready)
	}()
	var front string
	select {
	case front = <-ready:
	case code := <-exitF:
		t.Fatalf("front door exited immediately with %d", code)
	}

	client := &serve.Client{Base: "http://" + front}
	ctx := context.Background()
	for i := 0; i < 4; i++ {
		req := ringReq(10+i, uint64(70+i))
		var seqs []int
		st, err := client.Solve(ctx, req, func(ev serve.Event) { seqs = append(seqs, ev.Seq) })
		if err != nil {
			t.Fatalf("solve %d through front door: %v", i, err)
		}
		if st.State != serve.JobDone || st.Result == nil {
			t.Fatalf("job %d: %+v", i, st)
		}
		for k, seq := range seqs {
			if seq != k+1 {
				t.Fatalf("job %d stream has gaps: %v", i, seqs)
			}
		}
		// Resubmission hits some worker's cache through the sweep.
		again, err := client.Submit(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if !again.Cached {
			t.Fatalf("resubmission %d missed the fleet cache: %+v", i, again)
		}
	}

	// The front door's /healthz carries the routing counters in the
	// flat string map a worker's /healthz is.
	health, err := client.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for key, want := range map[string]string{"status": "ok", "routed": "4", "cacheHits": "4", "failovers": "0", "reparks": "0"} {
		if health[key] != want {
			t.Fatalf("front door /healthz %s = %q, want %q: %v", key, health[key], want, health)
		}
	}

	syscall.Kill(os.Getpid(), syscall.SIGTERM)
	for name, exit := range map[string]chan int{"w0": exit0, "w1": exit1, "front": exitF} {
		select {
		case code := <-exit:
			if code != 0 {
				t.Fatalf("%s exited %d after SIGTERM, want 0", name, code)
			}
		case <-time.After(60 * time.Second):
			t.Fatalf("%s did not exit after SIGTERM", name)
		}
	}
}
