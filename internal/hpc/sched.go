// Package hpc is the supercomputing substrate standing in for the
// paper's HPE-Cray EX environment: a discrete-event SLURM-like
// scheduler (sched.go) that models MPMD and heterogeneous jobs,
// exclusive quantum-device access and the idle-time behaviour of
// Fig. 1; the run-time routing rule of Fig. 2 (DensityPolicy), whose
// coordinator/worker scheme is qaoa2.Solve on the task-graph executor;
// and remote leaf dispatch to a solve daemon (RemoteSolver).
package hpc

import (
	"fmt"
	"math"
	"sort"
)

// Resources is a bundle of allocatable cluster resources.
type Resources struct {
	Nodes int // classical compute nodes
	QPUs  int // quantum devices (always allocated exclusively)
}

// fits reports whether r fits inside free.
func (r Resources) fits(free Resources) bool {
	return r.Nodes <= free.Nodes && r.QPUs <= free.QPUs
}

func (r Resources) add(o Resources) Resources {
	return Resources{Nodes: r.Nodes + o.Nodes, QPUs: r.QPUs + o.QPUs}
}

func (r Resources) sub(o Resources) Resources {
	return Resources{Nodes: r.Nodes - o.Nodes, QPUs: r.QPUs - o.QPUs}
}

// max returns the elementwise maximum.
func (r Resources) max(o Resources) Resources {
	return Resources{
		Nodes: maxInt(r.Nodes, o.Nodes),
		QPUs:  maxInt(r.QPUs, o.QPUs),
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Step is one phase of a job: a resource requirement held for a
// duration of virtual time (e.g. "classical pre-processing on 4 nodes
// for 10 minutes" or "QAOA circuit on 1 QPU for 2 minutes").
type Step struct {
	Name     string
	Req      Resources
	Duration float64
}

// Job is a sequential chain of steps, submitted at a point in virtual
// time.
//
// A monolithic job (Heterogeneous=false) allocates the elementwise
// maximum of its step requirements for its whole runtime — the naive
// SLURM allocation where the quantum device sits idle during classical
// phases. A heterogeneous job (Heterogeneous=true) allocates each step's
// resources only while that step runs, the paper's Fig. 1 proposal for
// "the reduction of idle time of a quantum device".
type Job struct {
	Name          string
	Submit        float64
	Steps         []Step
	Heterogeneous bool
}

// StepRecord is one executed allocation.
type StepRecord struct {
	Job      string
	Step     string
	Start    float64
	End      float64
	Res      Resources
	WaitTime float64 // time spent ready-but-queued before Start
}

// Metrics summarizes a simulated schedule. "Busy" counts USEFUL compute
// (a step that needs the resource is executing); "Held" counts
// allocation. A monolithic hybrid job holds its QPU during classical
// phases — held but not busy — which is precisely the idle time the
// paper's Fig. 1 heterogeneous jobs eliminate.
type Metrics struct {
	Makespan     float64
	QPUBusyTime  float64 // useful quantum compute, Σ over QPUs
	QPUHeldTime  float64 // allocation time, Σ over QPUs
	QPUIdleFrac  float64 // 1 − busy/(QPUs·makespan)
	NodeBusyTime float64
	NodeHeldTime float64
	NodeIdleFrac float64
	AvgWait      float64
	Records      []StepRecord
}

// Simulate runs the discrete-event cluster simulation: jobs arrive at
// their submit times, allocatable units (whole monolithic jobs, or
// individual steps of heterogeneous jobs) queue in FIFO order, and at
// every event the scheduler starts every queued unit that fits the free
// resources (conservative backfill — exactly SLURM's behaviour with
// backfill enabled). Virtual time advances event to event; no wall-clock
// time is consumed.
func Simulate(cluster Resources, jobs []Job) (*Metrics, error) {
	if cluster.Nodes < 0 || cluster.QPUs < 0 {
		return nil, fmt.Errorf("hpc: negative cluster resources %+v", cluster)
	}
	type unit struct {
		job      *Job
		jobIdx   int
		stepIdx  int // first step of the unit
		name     string
		req      Resources
		duration float64
		ready    float64 // time the unit became startable
		seq      int     // FIFO tiebreak
		// useful compute delivered by this unit (monolithic units hold
		// the max requirement but only compute per-step).
		usefulQPU  float64
		usefulNode float64
	}
	// Validate and build initial units.
	var queue []*unit
	seq := 0
	mkMonolithic := func(j *Job, ji int) (*unit, error) {
		var req Resources
		total, uq, un := 0.0, 0.0, 0.0
		for _, s := range j.Steps {
			req = req.max(s.Req)
			total += s.Duration
			uq += float64(s.Req.QPUs) * s.Duration
			un += float64(s.Req.Nodes) * s.Duration
		}
		return &unit{job: j, jobIdx: ji, name: j.Name, req: req, duration: total,
			ready: j.Submit, usefulQPU: uq, usefulNode: un}, nil
	}
	for ji := range jobs {
		j := &jobs[ji]
		if len(j.Steps) == 0 {
			return nil, fmt.Errorf("hpc: job %q has no steps", j.Name)
		}
		for _, s := range j.Steps {
			if s.Duration < 0 {
				return nil, fmt.Errorf("hpc: job %q step %q has negative duration", j.Name, s.Name)
			}
			if !s.Req.fits(cluster) {
				return nil, fmt.Errorf("hpc: job %q step %q needs %+v, cluster has %+v",
					j.Name, s.Name, s.Req, cluster)
			}
		}
	}

	// Event loop state.
	type running struct {
		u   *unit
		end float64
	}
	free := cluster
	var active []running
	var records []StepRecord
	now := 0.0
	totalWait := 0.0
	qpuBusy, qpuHeld := 0.0, 0.0
	nodeBusy, nodeHeld := 0.0, 0.0

	// Pending job arrivals sorted by submit time.
	arrivals := make([]int, len(jobs))
	for i := range arrivals {
		arrivals[i] = i
	}
	sort.SliceStable(arrivals, func(a, b int) bool {
		return jobs[arrivals[a]].Submit < jobs[arrivals[b]].Submit
	})
	nextArrival := 0

	enqueue := func(u *unit) {
		u.seq = seq
		seq++
		queue = append(queue, u)
	}

	admit := func(t float64) {
		for nextArrival < len(arrivals) && jobs[arrivals[nextArrival]].Submit <= t {
			ji := arrivals[nextArrival]
			j := &jobs[ji]
			if j.Heterogeneous {
				s := j.Steps[0]
				enqueue(&unit{job: j, jobIdx: ji, stepIdx: 0, name: j.Name + "/" + s.Name,
					req: s.Req, duration: s.Duration, ready: j.Submit,
					usefulQPU:  float64(s.Req.QPUs) * s.Duration,
					usefulNode: float64(s.Req.Nodes) * s.Duration})
			} else {
				u, _ := mkMonolithic(j, ji)
				enqueue(u)
			}
			nextArrival++
		}
	}
	admit(0)

	start := func(u *unit, t float64) {
		free = free.sub(u.req)
		active = append(active, running{u: u, end: t + u.duration})
		wait := t - u.ready
		totalWait += wait
		records = append(records, StepRecord{
			Job: u.job.Name, Step: u.name, Start: t, End: t + u.duration,
			Res: u.req, WaitTime: wait,
		})
		qpuBusy += u.usefulQPU
		qpuHeld += float64(u.req.QPUs) * u.duration
		nodeBusy += u.usefulNode
		nodeHeld += float64(u.req.Nodes) * u.duration
	}

	// tryStart launches every queued unit that fits, FIFO with backfill.
	tryStart := func(t float64) {
		sort.SliceStable(queue, func(a, b int) bool { return queue[a].seq < queue[b].seq })
		kept := queue[:0]
		for _, u := range queue {
			if u.req.fits(free) {
				start(u, t)
			} else {
				kept = append(kept, u)
			}
		}
		queue = kept
	}
	tryStart(now)

	for len(active) > 0 || len(queue) > 0 || nextArrival < len(arrivals) {
		// Next event: earliest completion or next arrival.
		nextT := math.Inf(1)
		for _, a := range active {
			if a.end < nextT {
				nextT = a.end
			}
		}
		if nextArrival < len(arrivals) && jobs[arrivals[nextArrival]].Submit < nextT {
			nextT = jobs[arrivals[nextArrival]].Submit
		}
		if math.IsInf(nextT, 1) {
			return nil, fmt.Errorf("hpc: scheduler stuck with %d queued units (cluster too small?)", len(queue))
		}
		now = nextT
		// Complete finished units.
		stillActive := active[:0]
		for _, a := range active {
			if a.end <= now+1e-12 {
				free = free.add(a.u.req)
				// Heterogeneous jobs chain their next step.
				if a.u.job.Heterogeneous && a.u.stepIdx+1 < len(a.u.job.Steps) {
					next := a.u.stepIdx + 1
					s := a.u.job.Steps[next]
					enqueue(&unit{job: a.u.job, jobIdx: a.u.jobIdx, stepIdx: next,
						name: a.u.job.Name + "/" + s.Name, req: s.Req, duration: s.Duration, ready: now,
						usefulQPU:  float64(s.Req.QPUs) * s.Duration,
						usefulNode: float64(s.Req.Nodes) * s.Duration})
				}
			} else {
				stillActive = append(stillActive, a)
			}
		}
		active = stillActive
		admit(now)
		tryStart(now)
	}

	m := &Metrics{
		Makespan:     now,
		QPUBusyTime:  qpuBusy,
		QPUHeldTime:  qpuHeld,
		NodeBusyTime: nodeBusy,
		NodeHeldTime: nodeHeld,
		Records:      records,
	}
	if cluster.QPUs > 0 && now > 0 {
		m.QPUIdleFrac = 1 - qpuBusy/(float64(cluster.QPUs)*now)
	}
	if cluster.Nodes > 0 && now > 0 {
		m.NodeIdleFrac = 1 - nodeBusy/(float64(cluster.Nodes)*now)
	}
	if len(records) > 0 {
		m.AvgWait = totalWait / float64(len(records))
	}
	return m, nil
}

// VerifyNoOversubscription checks a schedule's records against the
// cluster capacity at every time point; tests and the experiment harness
// call it as an invariant.
func VerifyNoOversubscription(cluster Resources, records []StepRecord) error {
	type event struct {
		t     float64
		delta Resources
		start bool
	}
	var events []event
	for _, r := range records {
		events = append(events, event{t: r.Start, delta: r.Res, start: true})
		events = append(events, event{t: r.End, delta: r.Res, start: false})
	}
	sort.Slice(events, func(a, b int) bool {
		if events[a].t != events[b].t {
			return events[a].t < events[b].t
		}
		// Process releases before acquisitions at the same instant.
		return !events[a].start && events[b].start
	})
	used := Resources{}
	for _, e := range events {
		if e.start {
			used = used.add(e.delta)
			if used.Nodes > cluster.Nodes || used.QPUs > cluster.QPUs {
				return fmt.Errorf("hpc: oversubscription at t=%v: used %+v of %+v", e.t, used, cluster)
			}
		} else {
			used = used.sub(e.delta)
		}
	}
	return nil
}
