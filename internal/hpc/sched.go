// Package hpc is the supercomputing substrate standing in for the
// paper's HPE-Cray EX environment: a discrete-event SLURM-like
// scheduler (sched.go) that models MPMD and heterogeneous jobs,
// exclusive quantum-device access and the idle-time behaviour of
// Fig. 1; the run-time routing rule of Fig. 2 (DensityPolicy, a plain
// density threshold), whose coordinator/worker scheme is qaoa2.Solve
// on the task-graph executor;
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
	return Resources{Nodes: max(r.Nodes, o.Nodes), QPUs: max(r.QPUs, o.QPUs)}
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
// every event the scheduler starts, in queue order, every queued unit
// that fits the resources still free. This is first-fit without
// reservations: a wide unit at the head of the queue waits for as long
// as narrower units behind it keep fitting, since nothing holds
// resources back for it (SLURM's backfill would reserve its start
// time). Virtual time advances event to event; no wall-clock time is
// consumed.
func Simulate(cluster Resources, jobs []Job) (*Metrics, error) {
	if cluster.Nodes < 0 || cluster.QPUs < 0 {
		return nil, fmt.Errorf("hpc: negative cluster resources %+v", cluster)
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

	// A unit allocates a run of its job's steps as one block: the whole
	// job when monolithic, one step when heterogeneous.
	type unit struct {
		job      *Job
		last     int // one past the unit's last step
		name     string
		req      Resources
		duration float64
		ready    float64 // time the unit became startable
		// useful compute delivered by this unit (monolithic units hold
		// the max requirement but only compute per-step).
		usefulQPU  float64
		usefulNode float64
	}
	// queue is FIFO: units are appended in the order they become ready
	// and tryStart filters it in place.
	var queue []*unit
	enqueue := func(j *Job, first, last int, ready float64) {
		u := &unit{job: j, last: last, name: j.Name, ready: ready}
		if j.Heterogeneous {
			u.name += "/" + j.Steps[first].Name
		}
		for _, s := range j.Steps[first:last] {
			u.req = u.req.max(s.Req)
			u.duration += s.Duration
			u.usefulQPU += float64(s.Req.QPUs) * s.Duration
			u.usefulNode += float64(s.Req.Nodes) * s.Duration
		}
		queue = append(queue, u)
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

	admit := func(t float64) {
		for nextArrival < len(arrivals) && jobs[arrivals[nextArrival]].Submit <= t {
			j := &jobs[arrivals[nextArrival]]
			last := len(j.Steps)
			if j.Heterogeneous {
				last = 1
			}
			enqueue(j, 0, last, j.Submit)
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

	// tryStart launches, in queue order, every queued unit that fits.
	tryStart := func(t float64) {
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
				// A heterogeneous job chains its next step.
				if u := a.u; u.last < len(u.job.Steps) {
					enqueue(u.job, u.last, u.last+1, now)
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
// cluster capacity at every time point: the scheduler tests' invariant.
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
