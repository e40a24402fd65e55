//! Criterion micro-benchmarks of the PACT hot paths: PAC store updates,
//! reservoir + Freedman-Diaconis recomputation, LLC probes, tier
//! channel booking, engine throughput, and the event loop's next-thread
//! pick across thread counts.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use pact_core::{AdaptiveBins, PacStore, PactConfig};
use pact_stats::{freedman_diaconis_width, Reservoir, SplitMix64};
use pact_tiersim::{
    Access, AccessStream, Channel, FirstTouch, Llc, LlcConfig, Machine, MachineConfig, PageId,
    SpaceSaving, TierConfig, TraceWorkload, Workload, PAGE_BYTES,
};
use pact_workloads::Zipf;

fn bench_pac_store(c: &mut Criterion) {
    c.bench_function("pac_store_record_sample", |b| {
        let mut store = PacStore::new();
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(0x9E3779B97F4A7C15);
            store.record_sample(PageId(i % 10_000), 418);
        });
    });
    c.bench_function("pac_store_attribute_period_1k_pages", |b| {
        b.iter_batched(
            || {
                let mut store = PacStore::new();
                for i in 0..1_000 {
                    store.record_sample(PageId(i), 418);
                }
                store
            },
            |mut store| black_box(store.attribute_period(1e6, 1.0, |e| e.period_samples as f64)),
            criterion::BatchSize::SmallInput,
        );
    });
}

fn bench_binning(c: &mut Criterion) {
    c.bench_function("reservoir_offer", |b| {
        let mut r = Reservoir::new(100);
        let mut rng = SplitMix64::new(1);
        let mut x = 0.0;
        b.iter(|| {
            x += 1.0;
            r.offer(x, &mut rng)
        });
    });
    c.bench_function("freedman_diaconis_100", |b| {
        let vals: Vec<f64> = (0..100).map(|i| (i * i) as f64).collect();
        b.iter(|| freedman_diaconis_width(black_box(&vals)));
    });
    c.bench_function("adaptive_bins_update_width", |b| {
        let mut bins = AdaptiveBins::new(&PactConfig::default());
        bins.observe((0..100).map(|i| i as f64));
        b.iter(|| {
            bins.update_width();
            black_box(bins.width())
        });
    });
}

fn bench_llc(c: &mut Criterion) {
    c.bench_function("llc_probe_2mb_16way", |b| {
        let mut llc = Llc::new(LlcConfig {
            size_bytes: 2 << 20,
            ways: 16,
        });
        let mut x = 0u64;
        b.iter(|| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            llc.access(black_box(x % 100_000))
        });
    });
}

/// The tier channel alone: one booking or backlog query per iteration,
/// at the ~4-cycle spacing of a loaded channel.
fn bench_channel(c: &mut Criterion) {
    // The emulated CXL channel at 2.2 GHz: 4.4 cycles per line.
    let transfer = TierConfig::EMULATED_CXL.line_transfer_cycles(2.2);
    let mut group = c.benchmark_group("channel_book");
    group.bench_function("monotone_single_line", |b| {
        let mut ch = Channel::new(transfer);
        let mut t = 0u64;
        b.iter(|| {
            t += 4;
            black_box(ch.book(t, 1))
        });
    });
    group.bench_function("interleaved_256_jittered", |b| {
        // 256 thread clocks trail a shared clock by a fixed lag of up to
        // half the 4096-cycle epoch ring plus per-access jitter, so
        // consecutive bookings land out of order across ring epochs.
        let mut ch = Channel::new(transfer);
        let mut rng = SplitMix64::new(3);
        let lags: Vec<u64> = (0..256).map(|_| rng.random_range(0..2_048u64)).collect();
        let (mut now, mut i) = (1u64 << 20, 0usize);
        b.iter(|| {
            now += 4;
            i = (i + 1) % lags.len();
            let t = now - lags[i] - rng.random_range(0..256u64);
            black_box(ch.book(t, 1))
        });
    });
    group.bench_function("backlog_cycles", |b| {
        let mut ch = Channel::new(transfer);
        let mut t = 0u64;
        for _ in 0..10_000 {
            t += 4;
            ch.book(t, 1);
        }
        b.iter(|| {
            t += 4;
            black_box(ch.backlog_cycles(t))
        });
    });
    group.finish();
}

fn bench_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine");
    group.sample_size(10);
    group.bench_function("machine_100k_chase_accesses", |b| {
        let mut trace = Vec::with_capacity(100_000);
        let mut x = 1u64;
        for _ in 0..100_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            trace.push(Access::dependent_load(
                (x % 4_000) * 4096 + ((x >> 40) % 64) * 64,
            ));
        }
        let wl = TraceWorkload::new("chase", 4_000 * 4096, trace);
        let machine = Machine::new(MachineConfig::skylake_cxl(1_000)).unwrap();
        b.iter(|| machine.run(black_box(&wl), &mut FirstTouch::new()));
    });
    group.finish();
}

/// Loads per event-loop cell, split evenly over its threads, so every
/// `event_loop_pick` row is ns per 65,536 accesses.
const PICK_LOADS: u64 = 1 << 16;

/// `threads` independent random-load threads over 16-page regions.
#[derive(Debug)]
struct RandomThreads {
    threads: u64,
}

struct RandomStream {
    x: u64,
    remaining: u64,
    base: u64,
}

impl AccessStream for RandomStream {
    fn next_access(&mut self) -> Option<Access> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        self.x = self.x.wrapping_mul(6364136223846793005).wrapping_add(1);
        Some(Access::load(self.base + (self.x >> 16) % (16 * PAGE_BYTES)))
    }
}

impl Workload for RandomThreads {
    fn name(&self) -> String {
        format!("random-{}", self.threads)
    }

    fn footprint_bytes(&self) -> u64 {
        self.threads * 16 * PAGE_BYTES
    }

    fn streams(&self) -> Vec<Box<dyn AccessStream + '_>> {
        (0..self.threads)
            .map(|i| {
                Box::new(RandomStream {
                    x: 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i + 1),
                    remaining: PICK_LOADS / self.threads,
                    base: i * 16 * PAGE_BYTES,
                }) as Box<dyn AccessStream + '_>
            })
            .collect()
    }
}

/// The next-thread pick in situ: the same 65,536 random loads spread
/// over T threads, so the per-access model work is fixed and the rows
/// differ by the scheduler's cost at T. Paper cells run about 4
/// threads; the scheduler-bound probes run 256 and 4096.
fn bench_event_loop(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_loop_pick");
    group.sample_size(10);
    for threads in [4u64, 8, 64, 256, 4096] {
        let wl = RandomThreads { threads };
        let machine = Machine::new(MachineConfig::skylake_cxl(
            wl.footprint_bytes() / PAGE_BYTES / 2,
        ))
        .unwrap();
        group.bench_function(&format!("threads_{threads}_64k_loads"), |b| {
            b.iter(|| machine.run(black_box(&wl), &mut FirstTouch::new()));
        });
    }
    group.finish();
}

fn bench_samplers(c: &mut Criterion) {
    c.bench_function("chmu_space_saving_observe", |b| {
        let mut ss = SpaceSaving::new(2_048);
        let mut x = 1u64;
        b.iter(|| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            ss.observe(PageId(black_box(x % 50_000)));
        });
    });
    c.bench_function("zipf_sample", |b| {
        let z = Zipf::new(1_000_000, 0.99);
        let mut rng = SplitMix64::new(7);
        b.iter(|| black_box(z.sample(&mut rng)));
    });
}

fn bench_top_bin(c: &mut Criterion) {
    c.bench_function("top_bin_candidates_10k_pages", |b| {
        let mut bins = AdaptiveBins::new(&PactConfig::default());
        bins.observe((0..100).map(|i| (i * i) as f64));
        bins.update_width();
        let pages: Vec<(PageId, f64)> = (0..10_000)
            .map(|i| (PageId(i), ((i * 37) % 1_000) as f64))
            .collect();
        b.iter(|| black_box(bins.top_bin_candidates(&pages)));
    });
}

criterion_group!(
    benches,
    bench_pac_store,
    bench_binning,
    bench_llc,
    bench_channel,
    bench_engine,
    bench_event_loop,
    bench_samplers,
    bench_top_bin
);
criterion_main!(benches);
