package amac

import (
	"amac/internal/experiments"
	"amac/internal/table"
)

// Experiment identifies one reproducible artifact of the paper's evaluation
// (a figure's data series or a table).
type Experiment = experiments.Descriptor

// ExperimentConfig parameterizes an experiment run (scale, seed, window).
// RunExperiment checks it before any work: Scale must be empty or a known
// scale, no count may be negative, Arrivals, Plans and Faults must parse,
// each scoped setting (the serving, pipeline and fault knobs and the Trace,
// Metrics and Profile sinks) must be one the experiment reads, per its
// Experiment.Reads. Bad input returns an error and never panics.
type ExperimentConfig = experiments.Config

// Scale selects experiment dataset sizes.
type Scale = experiments.Scale

// Experiment scales: Tiny for smoke tests, Small for the default
// reproduction, PaperScale for the paper's original tuple counts.
const (
	TinyScale  = experiments.Tiny
	SmallScale = experiments.Small
	PaperScale = experiments.Paper
)

// ResultTable is a named grid of measurements mirroring one paper artifact.
type ResultTable = table.Table

// Experiments returns every registered experiment, sorted by id.
func Experiments() []Experiment { return experiments.Registry() }

// RunExperiment regenerates the artifact with the given id ("fig5b",
// "table3", ...). See EXPERIMENTS.md for the per-experiment index. An
// unknown id or a cfg that fails the checks listed on ExperimentConfig
// returns an error before any work is done.
func RunExperiment(id string, cfg ExperimentConfig) ([]*ResultTable, error) {
	if err := experiments.Validate(cfg, id); err != nil {
		return nil, err
	}
	return experiments.Run(id, cfg)
}
