//! Host-speed calibration.
//!
//! The shared host this benchmark runs on changes speed by tens of percent
//! from one minute to the next and drifts further over an hour, and the
//! program's own times move with it. So every timed stretch of work (one
//! pass, one set-up) is bracketed by slices of a fixed reference kernel,
//! and its times are divided by the host's slowdown over that stretch: the
//! median slice time over [`SLICE_NOMINAL_S`]. The figures then read as
//! seconds on a host that runs a slice in the nominal time. The host's
//! speed also wavers within a second, so a workload that runs one
//! operation after another on the measuring thread calls [`tick`] between
//! them, and those slices count too.
//!
//! The kernel is a small bytecode interpreter of the benchmark's own,
//! running a fixed program of loops over a 256 KiB memory, so a host
//! slowdown hits it much as it hits the program's interpreter, and no
//! change to the program changes it: a change that makes the program
//! faster or slower moves the calibrated figures by the same share.

use std::cell::RefCell;
use std::hint::black_box;
use std::time::Instant;

use crate::stats::median;

/// Slices run before and after each timed stretch, besides those of
/// [`tick`].
const SLICES: usize = 5;

/// Interpreter steps in one slice.
const SLICE_STEPS: u64 = 1_000_000;

/// A slice's time on the host the benchmark was tuned on (2 vCPUs of an
/// Intel Xeon at 2.1 GHz, shared), in a quiet minute.
pub const SLICE_NOMINAL_S: f64 = 0.004;

/// Words of the kernel's memory (256 KiB).
const MEM_WORDS: usize = 1 << 15;

/// Register that counts a loop's remaining trips.
const TRIPS: usize = 15;

/// Trips of each loop.
const LOOP_TRIPS: u64 = 9;

/// One instruction of the reference kernel: registers `a` and `b`, and an
/// immediate `k`.
#[derive(Clone, Copy)]
enum Op {
    Add(usize, usize),
    Mul(usize, usize),
    Load(usize, usize, usize),
    Store(usize, usize),
    XorShift(usize, usize),
    Rotate(usize, u32),
    /// Jumps back to `k` while trips remain; else reloads the trip count
    /// and falls through to the next loop.
    Loop(usize),
}

/// The reference kernel's program and memory, made once per thread so a
/// slice allocates nothing.
struct Kernel {
    prog: Vec<Op>,
    mem: Vec<u64>,
}

impl Kernel {
    /// A fixed program of about 4000 instructions: loops whose bodies are
    /// 6 to 23 arithmetic, load and store instructions.
    fn new() -> Self {
        let mut x = 0x1234_5678_9ABC_DEF1_u64;
        let mut prog = Vec::new();
        while prog.len() < 4000 {
            let start = prog.len();
            for _ in 0..6 + xorshift(&mut x) % 18 {
                let r = xorshift(&mut x);
                let (a, b) = (1 + (r >> 8) as usize % 14, 1 + (r >> 16) as usize % 14);
                prog.push(match r % 8 {
                    0 | 6 => Op::Add(a, b),
                    1 => Op::Mul(a, b),
                    2 | 7 => Op::Load(a, b, (r >> 24) as usize % 4096),
                    3 => Op::Store(a, b),
                    4 => Op::XorShift(a, b),
                    _ => Op::Rotate(a, (r >> 24) as u32 % 64),
                });
            }
            prog.push(Op::Loop(start));
        }
        Self {
            prog,
            mem: vec![0; MEM_WORDS],
        }
    }

    /// Runs one slice from the same initial state every time and returns
    /// its wall time in seconds.
    fn slice(&mut self) -> f64 {
        self.mem.fill(0);
        let mask = MEM_WORDS - 1;
        let mut reg = [1_u64; 16];
        reg[TRIPS] = LOOP_TRIPS;
        let mut pc = 0;
        let t = Instant::now();
        for _ in 0..SLICE_STEPS {
            let op = self.prog[pc];
            pc += 1;
            match op {
                Op::Add(a, b) => reg[a] = reg[a].wrapping_add(reg[b]),
                Op::Mul(a, b) => reg[a] = reg[a].wrapping_mul(reg[b] | 1),
                Op::Load(a, b, k) => reg[a] = self.mem[(reg[b] as usize ^ k) & mask],
                Op::Store(a, b) => self.mem[reg[a] as usize & mask] = reg[b],
                Op::XorShift(a, b) => reg[a] ^= reg[b] >> 3,
                Op::Rotate(a, k) => reg[a] = reg[a].rotate_left(k),
                Op::Loop(k) => {
                    if reg[TRIPS] > 1 {
                        reg[TRIPS] -= 1;
                        pc = k;
                    } else {
                        reg[TRIPS] = LOOP_TRIPS;
                    }
                }
            }
            if pc == self.prog.len() {
                pc = 0;
            }
        }
        black_box((&self.mem, reg));
        t.elapsed().as_secs_f64()
    }
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

thread_local! {
    static KERNEL: RefCell<Kernel> = RefCell::new(Kernel::new());
    /// The slice times of the stretch [`bracket`] is measuring on this
    /// thread; `None` outside one.
    static STRETCH: RefCell<Option<Vec<f64>>> = const { RefCell::new(None) };
}

fn slices(n: usize) -> Vec<f64> {
    KERNEL.with(|k| {
        let mut k = k.borrow_mut();
        (0..n).map(|_| k.slice()).collect()
    })
}

/// Runs one slice if a [`bracket`] on this thread is measuring, and
/// nothing otherwise. Call it between operations, outside their timers.
pub fn tick() {
    STRETCH.with(|s| {
        if let Some(times) = s.borrow_mut().as_mut() {
            times.extend(slices(1));
        }
    });
}

/// Runs `f` between two sets of reference slices and returns its result
/// with the host's slowdown over that stretch: the median time of those
/// slices and of the [`tick`]s inside `f`, over [`SLICE_NOMINAL_S`].
/// Divide a time measured inside `f` by it.
pub fn bracket<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let before = STRETCH.with(|s| s.replace(Some(slices(SLICES))));
    assert!(before.is_none(), "calib::bracket does not nest");
    let r = f();
    let mut times = STRETCH.with(|s| s.take()).expect("the stretch is open");
    times.extend(slices(SLICES));
    (r, median(&times) / SLICE_NOMINAL_S)
}

/// Appends each operation's samples of one pass, `raw[op]`, to `dst[op]`,
/// divided by the host's slowdown `slow` over that pass.
pub fn add_pass(dst: &mut [Vec<f64>], raw: Vec<Vec<f64>>, slow: f64) {
    for (d, xs) in dst.iter_mut().zip(raw) {
        d.extend(xs.into_iter().map(|x| x / slow));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_slice_repeats_its_work() {
        let mut k = Kernel::new();
        k.slice();
        let first = k.mem.clone();
        k.slice();
        assert_eq!(k.mem, first);
        let (r, slow) = bracket(|| {
            tick();
            7
        });
        assert_eq!(r, 7);
        assert!(slow > 0.0);
        STRETCH.with(|s| assert!(s.borrow().is_none()));
    }
}
