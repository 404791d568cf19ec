//! Property tests: synthesis robustness across random specs, and
//! power-train monotonicity.

use otem_drivecycle::{synthesize, CycleSpec, Powertrain, StandardCycle, VehicleParams};
use otem_units::{Meters, MetersPerSecond, MetersPerSecondSquared, Seconds, Watts};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn synthesis_honours_any_sane_spec(
        duration in 300.0..2000.0f64,
        avg_kmh in 10.0..70.0f64,
        vmax_margin in 1.6..3.0f64,
        stops in 0u32..15,
        amax in 1.5..4.0f64,
        idle in 0.02..0.3f64,
        seed in 0u64..1000,
    ) {
        let spec = CycleSpec {
            name: "prop".to_owned(),
            duration: Seconds::new(duration.round()),
            distance: Meters::new(avg_kmh / 3.6 * duration),
            max_speed: MetersPerSecond::from_kmh(avg_kmh * vmax_margin),
            stops,
            max_accel: MetersPerSecondSquared::new(amax),
            idle_fraction: idle,
            max_specific_power: 25.0,
        };
        prop_assume!(spec.validate().is_ok());
        match synthesize(&spec, seed) {
            Ok(trace) => {
                prop_assert_eq!(trace.duration().value(), spec.duration.value());
                let err = (trace.distance().value() - spec.distance.value()).abs()
                    / spec.distance.value();
                prop_assert!(err < 0.02, "distance error {:.1}%", err * 100.0);
                prop_assert!(trace.max_speed().value() <= spec.max_speed.value() * 1.001);
                prop_assert!(
                    trace.max_acceleration().value() <= spec.max_accel.value() * 1.05
                );
                prop_assert!(trace.speeds().iter().all(|s| s.value() >= 0.0));
            }
            // Dense stop-and-go specs with long idle can be genuinely
            // unsatisfiable; rejecting them cleanly is correct behaviour.
            Err(e) => prop_assert!(
                matches!(e, otem_drivecycle::CycleError::Unsatisfiable { .. }),
                "unexpected error {e}"
            ),
        }
    }

    #[test]
    fn power_request_monotone_in_accel(
        v in 0.5..35.0f64,
        a1 in -3.0..3.0f64,
        da in 0.1..1.0f64,
    ) {
        let t = Powertrain::new(VehicleParams::midsize_ev()).unwrap();
        let lo = t.power_request(
            MetersPerSecond::new(v),
            MetersPerSecondSquared::new(a1),
        );
        let hi = t.power_request(
            MetersPerSecond::new(v),
            MetersPerSecondSquared::new(a1 + da),
        );
        prop_assert!(hi >= lo);
    }

    #[test]
    fn regen_never_returns_more_than_braking_supplies(
        v in 1.0..35.0f64,
        a in -4.0..-0.5f64,
    ) {
        let t = Powertrain::new(VehicleParams::midsize_ev()).unwrap();
        let p = t.power_request(
            MetersPerSecond::new(v),
            MetersPerSecondSquared::new(a),
        );
        let wheel = t
            .tractive_force(MetersPerSecond::new(v), MetersPerSecondSquared::new(a))
            .value()
            * v;
        if wheel < 0.0 {
            // |recovered| ≤ |wheel braking power| (minus accessories).
            prop_assert!(p.value() >= wheel, "recovered {p:?} from wheel {wheel}");
        }
    }

    #[test]
    fn power_trace_has_no_nan_for_standard_cycles(idx in 0usize..6) {
        let cycle = StandardCycle::ALL[idx];
        let trace = Powertrain::new(VehicleParams::midsize_ev())
            .unwrap()
            .power_trace(&otem_drivecycle::standard(cycle).unwrap());
        prop_assert!(trace.samples().iter().all(|p| p.is_finite()));
        prop_assert!(trace.peak() > Watts::ZERO);
    }
}
