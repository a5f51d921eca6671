package torture

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// Artifact is the JSON failure record ccltorture writes when a run
// fails: everything needed to re-run the failing schedule with one
// command line.
type Artifact struct {
	Config     Config        `json:"config"`
	Rounds     []RoundReport `json:"rounds"`
	Violations []Violation   `json:"violations"`
	// ReproCmd replays this exact configuration.
	ReproCmd string `json:"repro_cmd"`
}

// NewArtifact builds the failure record for a failed result. Its
// repro line runs exactly the recorded configuration once.
func NewArtifact(res *Result) *Artifact {
	c := res.Config
	mode := "adr"
	if c.EADR {
		mode = "eadr"
	}
	cmd := fmt.Sprintf("ccltorture -seed %d -duration 0 -mode %s -threads %d -rounds %d -ops %d -keys %d -gc %s",
		c.Seed, mode, c.Threads, c.Rounds, c.OpsPerThread, c.KeySpace, c.GC)
	if c.Shards > 1 {
		cmd += fmt.Sprintf(" -shards %d", c.Shards)
	}
	if c.BatchSize > 1 {
		cmd += fmt.Sprintf(" -batch %d", c.BatchSize)
	}
	return &Artifact{
		Config:     c,
		Rounds:     res.Rounds,
		Violations: res.Violations,
		ReproCmd:   cmd,
	}
}

// Write stores the artifact as torture-seed<N>.json under dir
// (creating it) and returns the path.
func (a *Artifact) Write(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("torture-seed%d.json", a.Config.Seed))
	data, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// ReadArtifact loads a failure record; ccltorture -replay uses it to
// re-run the recorded configuration.
func ReadArtifact(path string) (*Artifact, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var a Artifact
	if err := json.Unmarshal(data, &a); err != nil {
		return nil, fmt.Errorf("torture: bad artifact %s: %w", path, err)
	}
	return &a, nil
}
