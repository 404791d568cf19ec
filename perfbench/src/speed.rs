//! The host's current speed, read from a fixed reference computation.
//!
//! The benchmark runs on a shared host whose speed drifts by up to ~1.8×
//! in spells of tens of seconds to minutes (measured on a 2-vCPU Xeon
//! VM: `mpc_loop` wall decision p50 3.4 ms in fast spells, 4.3 ms in
//! typical ones, 6.1 ms in busy ones, with no steal time reported), more
//! than any relative bound can hold. Compute-bound work is therefore timed
//! together with a [`Probe`]: three small kernels of the benchmark's own
//! code, so a change to the program never moves the probe. Each time is
//! reported at reference speed, `measured × REFERENCE_MS / probe`.
//!
//! One kernel alone tracks the slowdown poorly: the wide one slows more
//! than the solver and the serial one less, so the probe is the
//! geometric mean of all three. On 15 passes of the `mpc_loop` route
//! over four minutes of quiet and busy spells, scaling by kernels of
//! this form cut the max/min ratio of the pass p50s from 1.33 to 1.03.

use crate::stats::median;
use std::hint::black_box;
use std::time::Instant;

/// A typical probe time on the 2-vCPU Xeon VM (2.1 GHz) the bounds were
/// set on (it read 0.22–0.54 ms there): the unit of every
/// reference-speed time.
pub const REFERENCE_MS: f64 = 0.30;

/// Timings of each kernel per probe; the fastest is kept.
const REPEATS: usize = 3;
/// Rounds of [`measure_parallel_ms`]; the median is kept.
const ROUNDS: usize = 5;

/// Lanes of the wide kernel.
const LANES: usize = 8;
/// Columns of the matrix-vector kernel.
const COLS: usize = 256;
/// Rows of the matrix-vector kernel.
const ROWS: usize = 24;

/// The reference kernels and their buffers.
pub struct Probe {
    matrix: Vec<f64>,
    x: Vec<f64>,
    y: Vec<f64>,
}

impl Default for Probe {
    fn default() -> Self {
        Self {
            matrix: (0..ROWS * COLS).map(|i| (i as f64 * 0.11).cos()).collect(),
            x: vec![0.0; COLS],
            y: vec![0.0; ROWS],
        }
    }
}

impl Probe {
    /// The probe's time now, in ms: the geometric mean of the three
    /// kernels' fastest of [`REPEATS`] timings.
    pub fn measure_ms(&mut self) -> f64 {
        let wide = best_ms(wide_cells);
        let serial = best_ms(serial_cell);
        let matvec = best_ms(|| self.matvec());
        (wide * serial * matvec).cbrt()
    }

    /// Dense matrix-vector products through `tanh`, streaming the 48 KB
    /// matrix 40 times: sensitive to load bandwidth and the L1/L2 caches.
    fn matvec(&mut self) {
        for (k, v) in self.x.iter_mut().enumerate() {
            *v = (black_box(k as f64) * 0.37).sin();
        }
        for _ in 0..40 {
            for (r, y) in self.y.iter_mut().enumerate() {
                let row = &self.matrix[r * COLS..(r + 1) * COLS];
                *y = row.iter().zip(&self.x).map(|(a, b)| a * b).sum();
            }
            for (k, v) in self.x.iter_mut().enumerate() {
                *v = (*v * 0.9 + 0.1 * self.y[k % ROWS]).tanh();
            }
        }
        black_box(&self.x);
    }
}

/// The probe's time on `threads` threads at once, in ms: the geometric
/// mean over the threads, median of [`ROUNDS`] rounds. For work that
/// keeps every core busy, where one core's neighbours may differ from
/// another's.
pub fn measure_parallel_ms(threads: usize) -> f64 {
    let rounds: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let times: Vec<f64> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..threads.max(1))
                    .map(|_| scope.spawn(|| Probe::default().measure_ms()))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("probe thread panicked"))
                    .collect()
            });
            (times.iter().map(|t| t.ln()).sum::<f64>() / times.len() as f64).exp()
        })
        .collect();
    median(&rounds)
}

/// Times `kernel` [`REPEATS`] times and returns the fastest, in ms.
fn best_ms(mut kernel: impl FnMut()) -> f64 {
    (0..REPEATS)
        .map(|_| {
            let t0 = Instant::now();
            kernel();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}

/// One step of a toy battery cell (current from power, Arrhenius-like
/// resistance, Joule heating, SoC clamp), returning its cost term.
#[inline(always)]
fn cell_step(p: f64, gain: f64, soc: &mut f64, temp: &mut f64) -> f64 {
    let i = p / (360.0 + 10.0 * *soc) * gain;
    let r = 0.05 * (-(*temp - 298.0) / 30.0).exp();
    let q = i * i * r;
    *temp += 0.01 * (q - 0.5 * (*temp - 298.0));
    *soc = (*soc - i * 1e-5).clamp(0.0, 1.0);
    (q * 1e-3).sqrt() + if *soc < 0.2 { 1.0 } else { 0.0 }
}

/// [`LANES`] independent cells for 4000 steps: many instructions in
/// flight, sensitive to the core's execution throughput.
fn wide_cells() {
    let mut soc = [black_box(0.5); LANES];
    let mut temp = [black_box(298.0); LANES];
    let mut cost = [0.0; LANES];
    for step in 0..4000 {
        let p = (step as f64 * 0.07).sin() * 20e3;
        for l in 0..LANES {
            cost[l] += cell_step(p, 1.0 + 0.01 * l as f64, &mut soc[l], &mut temp[l]);
        }
    }
    black_box((soc, temp, cost));
}

/// One cell for 12000 steps: a serial dependency chain, sensitive to
/// instruction latency.
fn serial_cell() {
    let (mut soc, mut temp) = (black_box(0.5), black_box(298.0));
    let mut cost = 0.0;
    for step in 0..12000 {
        let p = (step as f64 * 0.07).sin() * 20e3;
        cost += cell_step(p, 1.0, &mut soc, &mut temp);
    }
    black_box((soc, temp, cost));
}
