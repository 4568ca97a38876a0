//! Measurement primitives read from outside the program: process CPU time
//! and peak resident set size from `/proc`, host-speed calibration,
//! medians, and the FNV-1a fingerprint every workload folds its outputs
//! into.

use std::sync::OnceLock;
use std::time::Instant;

/// Clock ticks per second of the `/proc/<pid>/stat` time fields (Linux's
/// fixed `USER_HZ`).
const USER_HZ: f64 = 100.0;

/// User plus system CPU seconds of this process so far, summed over all of
/// its threads (0 where `/proc` is unavailable).
pub fn cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_cpu_ticks(&s))
        .map_or(0.0, |ticks| ticks as f64 / USER_HZ)
}

/// `utime + stime` in clock ticks from the text of `/proc/<pid>/stat`.
/// The command name may hold spaces and parentheses, so fields are counted
/// from the last `)`: after it come `state` (field 3) … `utime` (14) and
/// `stime` (15).
pub fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

/// Peak resident set size of this process in MiB (`VmHWM`; 0 where `/proc`
/// is unavailable).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_kb(&s))
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// The `VmHWM` line of `/proc/<pid>/status`, in kB.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line["VmHWM:".len()..]
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Seconds one [`calibration_block`] takes on the host the bounds were set
/// on (a 2-vCPU x86-64 VM) when it is quiet. [`scaled`] reads a timed
/// interval as seconds at that speed.
pub const CALIBRATION_REF_S: f64 = 0.0055;

/// Times a fixed kernel of the benchmark's own on the calling thread,
/// about 5.5 ms on the reference host. Half of it is dependent integer
/// mixing over a 64 KiB table on the stack with a floating-point chain,
/// which slows with the vCPU; half is a dependent walk over a 16 MiB table
/// allocated once, which slows with the shared cache and memory. The
/// program never calls this code; it can move it only through the cache
/// and memory state it leaves behind, which the walk mostly replaces.
///
/// One thread, although `project_p1` trains on two: running the kernel on
/// every pool thread at once widened the run-to-run spread of every
/// workload's `wall_s` (README.md, End-to-end metrics).
pub fn calibration_block() -> f64 {
    const N: usize = 1 << 14;
    const ROUNDS: usize = 128;
    const WALK: usize = 150_000;
    static FAR: OnceLock<Vec<u32>> = OnceLock::new();
    let far = FAR.get_or_init(|| {
        (0..1u32 << 22)
            .map(|i| i.wrapping_mul(0x9e37_79b1))
            .collect()
    });
    let t = Instant::now();
    let mut table = [0u32; N];
    for (i, x) in table.iter_mut().enumerate() {
        *x = i as u32;
    }
    let (mut h, mut acc) = (0x9e37_79b9_7f4a_7c15u64, 0.0f32);
    for _ in 0..ROUNDS {
        for i in 0..N {
            h ^= h << 13;
            h ^= h >> 7;
            h ^= h << 17;
            let j = h as usize & (N - 1);
            table[i] = table[i].wrapping_mul(0x9e37_79b1) ^ table[j];
            acc = acc * 0.75 + (table[i] & 0xffff) as f32;
        }
    }
    let mut at = 0usize;
    for _ in 0..WALK {
        at = (far[at] as usize ^ at.wrapping_mul(31)) & (far.len() - 1);
    }
    std::hint::black_box((acc, &table, at));
    t.elapsed().as_secs_f64()
}

/// `seconds` measured while calibration blocks took `blocks` seconds each,
/// read as seconds on the reference host.
///
/// The host the bounds were set on switches each vCPU between full and
/// about 1.5-1.75× slower, for fractions of a second to seconds at a time.
/// Blocks taken between a run's layer calls sample the same mix of speeds
/// as the calls, so dividing by their mean removes about half of the
/// run-to-run spread; the workloads slow more or less than the kernel
/// does, which leaves the rest (README.md, End-to-end metrics).
pub fn scaled(seconds: f64, blocks: &[f64]) -> f64 {
    seconds * CALIBRATION_REF_S / mean(blocks)
}

/// Mean of `values` (0 when empty).
pub fn mean(values: &[f64]) -> f64 {
    ratio(values.iter().sum(), values.len() as f64)
}

/// Median of `values` (mean of the middle pair for an even count; 0 when
/// empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `a / b`, or 0 when `b` is not positive (a layer the workload never ran).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// A 64-bit FNV-1a hasher over little-endian words.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn eat(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn eat_f64(&mut self, x: f64) {
        self.eat(x.to_bits());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_ticks_parse_from_a_stat_fixture() {
        // A command name with spaces and a `)` must not shift the fields.
        let stat = "4242 (bench (x) y) R 1 4242 4242 0 -1 4194304 812 0 0 0 \
                    1500 230 0 0 20 0 3 0 123456 104857600 2048 18446744073709551615";
        assert_eq!(parse_cpu_ticks(stat), Some(1730));
        assert_eq!(parse_cpu_ticks("4242 (short) R 1 2"), None);
        assert_eq!(parse_cpu_ticks("no parenthesis at all"), None);
    }

    #[test]
    fn vm_hwm_parses_from_a_status_fixture() {
        let status =
            "Name:\tbenchmark\nVmPeak:\t  812344 kB\nVmHWM:\t  204800 kB\nVmRSS:\t  1024 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(204_800));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\nVmRSS:\t1 kB\n"), None);
    }

    #[test]
    fn live_proc_readings_are_positive() {
        let busy: u64 = (0..5_000_000u64).map(std::hint::black_box).sum();
        std::hint::black_box(busy);
        assert!(peak_rss_mb() > 0.0);
        assert!(cpu_seconds() >= 0.0);
    }

    #[test]
    fn medians_and_ratios() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
