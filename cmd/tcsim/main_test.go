package main

import (
	"context"
	"io"
	"testing"

	"threadcluster/internal/experiments"
)

// fastOptions keeps CLI tests quick. These tests exercise dispatch and
// output plumbing, not result shapes, so -short can cut the rounds
// further without weakening anything.
func fastOptions() experiments.Options {
	opt := experiments.DefaultOptions()
	opt.WarmRounds = 30
	opt.EngineRounds = 50
	opt.MeasureRounds = 30
	if testing.Short() {
		opt.WarmRounds = 10
		opt.EngineRounds = 20
		opt.MeasureRounds = 10
	}
	return opt
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run(context.Background(), "nonsense", experiments.Volano, fastOptions(), false); err == nil {
		t.Error("unknown experiment should error")
	}
}

func TestRunTable1AndFig1(t *testing.T) {
	if err := run(context.Background(), "table1", experiments.Volano, fastOptions(), true); err != nil {
		t.Errorf("table1: %v", err)
	}
	if err := run(context.Background(), "fig1", experiments.Volano, fastOptions(), false); err != nil {
		t.Errorf("fig1: %v", err)
	}
}

func TestRunFig3SingleWorkload(t *testing.T) {
	if err := run(context.Background(), "fig3", experiments.Microbenchmark, fastOptions(), false); err != nil {
		t.Errorf("fig3: %v", err)
	}
}

// TestQuickDriveFlags runs the shrunken command the verification notes
// recommend for quick drives, and checks that the round overrides land
// in the options while -engine still names the execution engine.
func TestQuickDriveFlags(t *testing.T) {
	args := []string{"-exp", "fig3", "-workload", experiments.JBB, "-warm", "5", "-engine-rounds", "5", "-measure", "5"}
	cli, err := parseFlags(args, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if cli.opt.WarmRounds != 5 || cli.opt.EngineRounds != 5 || cli.opt.MeasureRounds != 5 {
		t.Errorf("rounds = %d/%d/%d, want 5/5/5", cli.opt.WarmRounds, cli.opt.EngineRounds, cli.opt.MeasureRounds)
	}
	if err := run(context.Background(), cli.exp, cli.workload, cli.opt, cli.markdown); err != nil {
		t.Errorf("quick drive: %v", err)
	}
	if _, err := parseFlags([]string{"-engine", "5"}, io.Discard); err == nil {
		t.Error("-engine 5 should be rejected: -engine selects seq|parallel")
	}
}
