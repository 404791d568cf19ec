//! The closed-loop frontier on a short route: the first 121 s of US06
//! under `paper_config()`. Every row's realized cost, regret over the
//! whole-route floor and forward stages per decision are pinned exactly,
//! so a change that moves any row's decisions or work fails here.

use otem::mpc::MpcConfig;
use otem::planner::{plan_route, realized_cost};
use otem_bench::{cycle_trace, frontier_rows, paper_config, run_frontier_row};
use otem_drivecycle::{PowerTrace, StandardCycle};
use otem_fleet::OutcomeTally;
use otem_telemetry::NullSink;

/// Route length: odd, so a `k = 2` row holds one step fewer than it
/// solves.
const STEPS: usize = 121;

/// The floor's realized cost on the route.
const FLOOR: f64 = 11041036.442186415;

/// `(cost, regret %, stages per decision)` of each row of
/// [`frontier_rows`], in order.
const PINNED: [(f64, f64, f64); 22] = [
    (14611188.470850132, 32.335297934735685, 344.8264462809917),
    (14948824.631622046, 35.39330940440033, 186.84297520661158),
    (15138717.2926547, 37.11319016040524, 95.20661157024793),
    (14533589.536363963, 31.632475016864724, 293.9504132231405),
    (14211773.219817493, 28.71774578622066, 727.1404958677685),
    (14506191.396075968, 31.384326752601144, 391.3388429752066),
    (14640270.6234087, 32.59869850143835, 202.71074380165288),
    (13680915.988837795, 23.909707756825547, 1568.5289256198348),
    (14170929.579990491, 28.347820009407343, 450.24793388429754),
    (14084699.527376939, 27.566824012654003, 264.9917355371901),
    (14034973.70819675, 27.116451265126496, 427.6363636363636),
    (14904287.29197031, 34.98992934234777, 127.83471074380165),
    (14704326.229124881, 33.178857855603994, 612.595041322314),
    (12356621.888799027, 11.915416215690811, 355.3388429752066),
    (14800415.125145923, 34.04914658732032, 335.504132231405),
    (14151750.296396784, 28.17411092245581, 22.34710743801653),
    (13859757.552682266, 25.52949739143937, 78.47107438016529),
    (14488161.01241597, 31.221023391051617, 159.6694214876033),
    (14212959.02689512, 28.728485784080803, 393.5206611570248),
    (12378988.132015422, 12.117989980694755, 404.3305785123967),
    (14916071.130297493, 35.096656988695884, 351.5702479338843),
    (14502491.626295667, 31.35081749104156, 322.0165289256198),
];

fn route() -> PowerTrace {
    let lap = cycle_trace(StandardCycle::Us06, 1).expect("trace");
    PowerTrace::new(lap.dt(), lap.samples()[..STEPS].to_vec())
}

#[test]
fn every_frontier_row_is_pinned_on_a_short_route() {
    let config = paper_config();
    let trace = route();
    let floor = realized_cost(&plan_route(&config, &trace).expect("plan").replay);
    assert_eq!(floor, FLOOR);
    let rows: Vec<_> = frontier_rows().collect();
    assert_eq!(
        rows[0],
        (MpcConfig::default(), 1),
        "the first row is the default"
    );
    assert_eq!(rows.len(), PINNED.len());
    for (row, pinned) in rows.into_iter().zip(PINNED) {
        let (run, stages) = run_frontier_row(row, &config, &trace, &NullSink).expect("run");
        let cost = realized_cost(&run);
        let regret = (cost / floor - 1.0) * 100.0;
        assert_eq!((cost, regret, stages), pinned, "{row:?}");
    }
}

/// A `k = 2` row starves the solver on every odd step: ⌊n/2⌋ solves
/// end `deadline_reached`, and every step reports one outcome.
#[test]
fn a_period_two_row_holds_every_other_step() {
    let row = frontier_rows().find(|&(_, k)| k == 2).expect("a k = 2 row");
    let tally = OutcomeTally::new();
    run_frontier_row(row, &paper_config(), &route(), &tally).expect("run");
    let outcomes = tally.snapshot();
    assert_eq!(outcomes.deadline_reached, STEPS as u64 / 2);
    let reported = outcomes.converged
        + outcomes.budget_exhausted
        + outcomes.stalled
        + outcomes.non_finite
        + outcomes.deadline_reached;
    assert_eq!(reported, STEPS as u64);
}
