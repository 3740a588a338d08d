package chaos

import "github.com/namdb/rdmatree/internal/rdma/faultnet"

// Expect declares a scenario's contract — the outcome the chaos tests
// assert. It is per-scenario data, not code, so the same schedule shape can
// carry different expectations at different replication factors: an
// unreplicated region loss is permanent ErrServerLost, while the same loss
// at k >= 2 must fail over and recover every acked operation.
type Expect struct {
	// Reconnects asserts the run performed at least one QP re-establishment.
	Reconnects bool
	// ServerLost asserts at least one operation surfaced rdma.ErrServerLost
	// to its client. When false, the tests assert *zero* such operations —
	// the recovery contract of replicated region loss.
	ServerLost bool
	// PermanentLoss marks genuine unrecoverable data loss (every member of
	// a replica group wiped, or any wipe at k=1 if one were scripted):
	// post-run verification and rebuild are skipped because the surviving
	// state is incomplete by construction.
	PermanentLoss bool
	// MaxPolicySwitches, when > 0 on an Adaptive scenario, bounds the total
	// strategy-switch count across all clients on the hybrid design — the
	// no-flapping contract: hysteresis and dwell must hold the switch count
	// far below the evaluation count even under pressure that oscillates
	// the cost estimates.
	MaxPolicySwitches int
	// PolicyResets asserts that at least one promotion/group-move reset a
	// partition's policy state and signal window (hybrid + Adaptive only).
	PolicyResets bool
}

// Scenario is one named, scripted fault schedule.
type Scenario struct {
	Name string
	// What the schedule exercises, for reports.
	Doc string
	// Replicas is the page-replication factor the scenario runs at (0 and 1
	// both mean unreplicated).
	Replicas int
	// Adaptive runs the hybrid design's clients under the traversal-policy
	// engine (Config.Adaptive); the other designs ignore it.
	Adaptive bool
	Schedule faultnet.Schedule
	// Expect is the scenario's asserted outcome.
	Expect Expect
}

// Scenarios returns the library of scripted fault schedules the chaos tests
// and the nambench chaos experiment run. Every schedule is deterministic for
// its seed. The tick-scripted crashes are placed to land mid-run for the
// least verb-intensive design (coarse issues ~one Call per operation, so the
// default workload advances the tick counter by only a couple thousand);
// verb-heavy designs just hit the same ticks earlier in their run.
func Scenarios() []Scenario {
	return []Scenario{
		{
			Name: "delay",
			Doc:  "delayed completions: 30% of verbs delayed, roughly half past the deadline (timeout, verb not executed)",
			Schedule: faultnet.Schedule{
				Seed:       1,
				DelayRate:  0.30,
				DeadlineNS: 10_000,
				MaxDelayNS: 20_000,
			},
		},
		{
			Name: "drop",
			Doc:  "dropped completions: 2% of verbs time out without executing",
			Schedule: faultnet.Schedule{
				Seed:     2,
				DropRate: 0.02,
			},
		},
		{
			Name: "qp-error",
			Doc:  "QP error transitions roughly every 250 verbs per client, each requiring reconnect",
			Schedule: faultnet.Schedule{
				Seed:         3,
				QPErrorEvery: 250,
			},
			Expect: Expect{Reconnects: true},
		},
		{
			Name: "crash-restart",
			Doc:  "server 1 crashes twice mid-run and restarts with its region intact, on top of a 0.5% drop rate",
			Schedule: faultnet.Schedule{
				Seed:     4,
				DropRate: 0.005,
				Steps: []faultnet.Step{
					{AtTick: 800, Server: 1, DownForTicks: 150},
					{AtTick: 1_800, Server: 1, DownForTicks: 150},
				},
			},
			Expect: Expect{Reconnects: true},
		},
		{
			Name: "crash-lose",
			Doc:  "unreplicated: server 2 crashes late in the run and restarts without its registered region: operations touching it surface rdma.ErrServerLost",
			Schedule: faultnet.Schedule{
				Seed: 5,
				Steps: []faultnet.Step{
					{AtTick: 1_600, Server: 2, DownForTicks: 150, Lose: true},
				},
			},
			Expect: Expect{ServerLost: true},
		},
		{
			Name:     "repl-crash-lose",
			Doc:      "k=2: server 2 crashes mid-run and restarts with its region wiped, on top of a 0.5% drop rate; its group fails over to the surviving replica and every acked operation recovers",
			Replicas: 2,
			Schedule: faultnet.Schedule{
				// The drops guarantee verb-level retries in every run: the
				// crash alone may resolve through promotion and operation
				// re-runs without one.
				Seed:     6,
				DropRate: 0.005,
				Steps: []faultnet.Step{
					{AtTick: 1_600, Server: 2, DownForTicks: 150, Lose: true},
				},
			},
			// No Reconnects expectation: a reconnect attempt against the
			// wiped server resolves into promotion (ErrGroupMoved) instead
			// of a successful QP re-establishment, and after failover the
			// dead member is never contacted again.
			Expect: Expect{},
		},
		{
			Name:     "repl-crash-split",
			Doc:      "k=2: a primary is wiped early, while bulk growth still drives splits, under a drop rate; interrupted mirror pushes must neither lose nor duplicate acked inserts",
			Replicas: 2,
			Schedule: faultnet.Schedule{
				Seed:     7,
				DropRate: 0.005,
				Steps: []faultnet.Step{
					{AtTick: 500, Server: 1, DownForTicks: 120, Lose: true},
				},
			},
			Expect: Expect{},
		},
		{
			Name:     "repl-double-fault",
			Doc:      "k=2: both members of replica group 2 (servers 2 and 3) are wiped within one run — a genuine k-fault loss that must surface as permanent rdma.ErrServerLost, never as silent corruption",
			Replicas: 2,
			Schedule: faultnet.Schedule{
				Seed: 8,
				Steps: []faultnet.Step{
					{AtTick: 1_200, Server: 2, DownForTicks: 100, Lose: true},
					{AtTick: 2_000, Server: 3, DownForTicks: 100, Lose: true},
				},
			},
			Expect: Expect{ServerLost: true, PermanentLoss: true},
		},
		{
			Name: "policy-flap",
			Doc: "k=2 adaptive hybrid: heavy completion delays proxy server-CPU pressure while server 1 crashes, restarts, and is later wiped; " +
				"the traversal-policy engine may switch strategies but must not flap, and the promotion must reset the affected partition's signal window rather than feed it stale samples",
			Replicas: 2,
			Adaptive: true,
			Schedule: faultnet.Schedule{
				Seed:       9,
				DelayRate:  0.25,
				DeadlineNS: 100_000,
				MaxDelayNS: 25_000,
				Steps: []faultnet.Step{
					{AtTick: 700, Server: 1, DownForTicks: 120},
					{AtTick: 1_500, Server: 1, DownForTicks: 120, Lose: true},
				},
			},
			Expect: Expect{MaxPolicySwitches: 32, PolicyResets: true},
		},
	}
}

// FindScenario returns the named scenario, or false.
func FindScenario(name string) (Scenario, bool) {
	for _, s := range Scenarios() {
		if s.Name == name {
			return s, true
		}
	}
	return Scenario{}, false
}
