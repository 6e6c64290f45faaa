//! Shared plumbing: seeded generators, hashing, sample statistics, the
//! in-memory span tracer, and the metric record every workload returns.

use std::collections::BTreeMap;
use std::time::Instant;

/// SplitMix64: the benchmark's only RNG, so every generated input is a
/// pure function of `--seed` and independent of any crate's RNG.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix64(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// The SplitMix64 finalizer: a stateless avalanche hash of one word.
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Stateless hash of a tuple of words, for seeded per-item choices.
pub fn hash_words(words: &[u64]) -> u64 {
    words.iter().fold(0x51ed_270b_2b8f_0a3d, |h, &w| mix64(h ^ mix64(w)))
}

/// Word-at-a-time digest (a `mix64` fold): the stream-hash witness,
/// cheap enough to run over every report without showing in a tick.
#[derive(Debug, Clone, Copy, Default)]
pub struct Digest(u64);

impl Digest {
    pub fn write_u64(&mut self, v: u64) {
        self.0 = mix64(self.0 ^ v);
    }

    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
        self.write_u64(bytes.len() as u64);
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// A latency sample set reported as a median plus a tail percentile.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            0.0
        } else {
            self.0.iter().sum::<f64>() / self.0.len() as f64
        }
    }

    /// Nearest-rank quantile and the number of samples strictly beyond
    /// its rank (the contract asks for at least ten beyond a reported
    /// tail percentile).
    pub fn quantile(&self, q: f64) -> (f64, usize) {
        if self.0.is_empty() {
            return (0.0, 0);
        }
        let mut sorted = self.0.clone();
        sorted.sort_by(f64::total_cmp);
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        (sorted[rank - 1], sorted.len() - rank)
    }
}

/// A `kB` field of `/proc/self/status`, in MB (0 when unavailable).
fn status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// Current resident set size of this process (`VmRSS`), in MB.
pub fn rss_mb() -> f64 {
    status_mb("VmRSS:")
}

/// One span: a timed call into a layer (or the benchmark's own work,
/// under the `bench.` prefix), its parent and the tick it belongs to.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub tick: u64,
}

/// Handle returned by [`Tracer::begin`]; inert when tracing is off.
#[must_use]
pub struct Open(Option<u32>);

/// In-memory span recorder. Off, `begin`/`end` cost one branch.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    tick: u64,
}

/// Aggregate time of one span name over the traced ticks.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Name of the root span wrapping one measured tick (or completion).
pub const ROOT: &str = "loop";

impl Tracer {
    pub fn new() -> Self {
        Self { on: false, origin: Instant::now(), spans: Vec::new(), stack: Vec::new(), tick: 0 }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    pub fn set_tick(&mut self, tick: u64) {
        self.tick = tick;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let idx = self.spans.len() as u32;
        let start_ns = self.now_ns();
        let parent = self.stack.last().copied();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, tick: self.tick });
        self.stack.push(idx);
        Open(Some(idx))
    }

    pub fn end(&mut self, open: Open) {
        if let Some(idx) = open.0 {
            self.spans[idx as usize].end_ns = self.now_ns();
            self.stack.pop();
        }
    }

    /// Per-name totals with self time (duration minus the time covered
    /// by child spans), plus the share of root-span wall time covered by
    /// layer spans (direct children of the root not named `bench.*`).
    pub fn analyze(&self) -> (BTreeMap<&'static str, SpanTotals>, f64) {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut totals: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        let (mut root_ns, mut layer_ns) = (0u64, 0u64);
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            let t = totals.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(child_ns[i]);
            match s.parent {
                None if s.name == ROOT => root_ns += dur,
                Some(p) if self.spans[p as usize].name == ROOT && !s.name.starts_with("bench.") => {
                    layer_ns += dur
                }
                _ => {}
            }
        }
        let coverage = if root_ns == 0 { 0.0 } else { layer_ns as f64 / root_ns as f64 };
        (totals, coverage)
    }

    /// Writes every span as one JSON line (`name`, `start_ns`, `end_ns`,
    /// `parent` index or null, `tick`).
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"tick\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.tick
            )?;
        }
        out.flush()
    }
}

/// Mean self time per traced tick of span `name`, in microseconds.
pub fn mean_self_us(totals: &BTreeMap<&'static str, SpanTotals>, name: &str, ticks: u64) -> f64 {
    totals.get(name).map_or(0.0, |t| t.self_ns as f64 / 1e3 / ticks.max(1) as f64)
}

/// What one workload run produced: the pass/fail verdict, attempt
/// accounting, the metrics by name, and provenance for the context line.
#[derive(Debug, Default)]
pub struct Outcome {
    pub failures: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Sample counts printed beside percentile metrics.
    pub sample_notes: Vec<String>,
    /// Input sizes, thread/shard counts and hashes for the context line.
    pub context: Vec<(String, String)>,
    /// Estimate error of the run, checked against the workload's ceiling
    /// in both modes (it is printed as a metric only untraced).
    pub nmae: f64,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn fail(&mut self, msg: impl Into<String>) {
        self.failures.push(msg.into());
    }

    pub fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(msg());
        }
    }

    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.context.push((key.to_string(), value.to_string()));
    }

    /// Records a p50/p90 pair from `samples` under the given metric
    /// names (converted by `scale`), noting the sample counts and
    /// failing the run when the tail has fewer than ten samples beyond.
    pub fn percentiles(
        &mut self,
        samples: &Samples,
        p50: &'static str,
        p90: &'static str,
        scale: f64,
    ) {
        let (v50, _) = samples.quantile(0.5);
        let (v90, beyond) = samples.quantile(0.9);
        self.set(p50, v50 * scale);
        self.set(p90, v90 * scale);
        self.sample_notes.push(format!("{p90}: n={} beyond={beyond}", samples.len()));
        self.check(beyond >= 10, || {
            format!("{p90}: only {beyond} samples beyond the percentile (need >= 10)")
        });
    }
}

/// Median of a small set of set-up timings.
pub fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The workload parameters every run shares.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Algorithm-1 floating-point work of one ALS sweep on an `m × n`
/// matrix with `nnz` observed cells at rank `r` (the formula is in the
/// catalogue): Gram and right-hand-side accumulation on both axes, one
/// Cholesky solve per row and column, and the objective.
pub fn flops_per_sweep(m: f64, n: f64, nnz: f64, r: f64) -> f64 {
    nnz * (2.0 * r * r + 8.0 * r + 3.0) + (m + n) * (r * r * r / 3.0 + 2.0 * r * r + 2.0 * r)
}

/// Whether iteration `i` of a traced run's measured loop is traced:
/// tracing alternates on and off every `block` iterations, and the
/// untraced blocks are the baseline of `trace.overhead`.
pub fn traced_block(args: RunArgs, i: u64, block: u64) -> bool {
    args.trace && (i / block).is_multiple_of(2)
}

/// How many times each workload repeats its set-up before the measured
/// loop; the last one is measured.
pub const SETUP_REPEATS: usize = 3;

/// Further set-ups spread through an untraced measured loop, so that
/// the `setup_s` median (over all set-ups) samples the whole run rather
/// than the host's state in its first seconds.
pub const SETUPS_DURING: usize = 3;

/// The measured loop's clock: runs for `seconds` of loop time and says
/// when an interleaved set-up is due, pausing while it runs.
pub struct LoopClock {
    seconds: f64,
    setups: usize,
    done: usize,
    banked: f64,
    since: Instant,
}

impl LoopClock {
    /// `SETUPS_DURING` interleaved set-ups untraced, none traced.
    pub fn new(args: RunArgs) -> Self {
        let setups = if args.trace { 0 } else { SETUPS_DURING };
        Self { seconds: args.seconds, setups, done: 0, banked: 0.0, since: Instant::now() }
    }

    fn elapsed(&self) -> f64 {
        self.banked + self.since.elapsed().as_secs_f64()
    }

    pub fn running(&self) -> bool {
        self.elapsed() < self.seconds
    }

    /// Whether the next set-up is due (at equal shares of the run); if
    /// so, the clock stops until [`LoopClock::resume`].
    pub fn setup_due(&mut self) -> bool {
        let t = self.elapsed();
        let at = self.seconds * (self.done + 1) as f64 / (self.setups + 1) as f64;
        if self.done == self.setups || t < at {
            return false;
        }
        self.done += 1;
        self.banked = t;
        true
    }

    pub fn resume(&mut self) {
        self.since = Instant::now();
    }
}
