package hpc

import "fmt"

// SplitStep slices a (classical) step into `slices` sequential chunks,
// each carrying the original resource requirement and an additional
// checkpoint/restart overhead. This implements the mechanism in the
// paper's Fig. 2 caption: "the consumption of classical and quantum
// resources does not start at the same time. However this can be
// achieved by splitting, checkpointing, and restarting the classical
// part appropriately" — sliced classical work releases its nodes at
// every checkpoint, letting the scheduler interleave quantum phases of
// other jobs instead of holding resources through one long block.
func SplitStep(s Step, slices int, checkpointOverhead float64) ([]Step, error) {
	if slices < 1 {
		return nil, fmt.Errorf("hpc: cannot split into %d slices", slices)
	}
	if checkpointOverhead < 0 {
		return nil, fmt.Errorf("hpc: negative checkpoint overhead")
	}
	if slices == 1 {
		return []Step{s}, nil
	}
	chunk := s.Duration / float64(slices)
	out := make([]Step, slices)
	for i := range out {
		d := chunk
		if i > 0 {
			d += checkpointOverhead // restart cost for every resumed slice
		}
		out[i] = Step{
			Name:     fmt.Sprintf("%s[%d/%d]", s.Name, i+1, slices),
			Req:      s.Req,
			Duration: d,
		}
	}
	return out, nil
}

// SplitClassicalSteps rewrites a job so every step that uses no QPU is
// sliced; quantum steps are never split (a circuit execution cannot be
// checkpointed). The job is forced heterogeneous, since slicing only
// helps when each slice allocates separately.
func SplitClassicalSteps(j Job, slices int, checkpointOverhead float64) (Job, error) {
	out := Job{Name: j.Name, Submit: j.Submit, Heterogeneous: true}
	for _, s := range j.Steps {
		if s.Req.QPUs > 0 {
			out.Steps = append(out.Steps, s)
			continue
		}
		parts, err := SplitStep(s, slices, checkpointOverhead)
		if err != nil {
			return Job{}, err
		}
		out.Steps = append(out.Steps, parts...)
	}
	return out, nil
}
