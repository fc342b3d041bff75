//! Criterion benchmarks of the synthetic workload substrate: per-profile
//! generation throughput and the multiprogramming mixer.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use smith85_synth::catalog;
use smith85_trace::mix::RoundRobinMix;
use smith85_trace::stats::TraceCharacterizer;

const REFS: usize = 50_000;

fn bench_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("generate");
    group.throughput(Throughput::Elements(REFS as u64));
    for name in ["MVS1", "VCCOM", "ZGREP", "TWOD", "PL0"] {
        let spec = catalog::by_name(name).expect("catalog trace");
        group.bench_with_input(BenchmarkId::from_parameter(name), &spec, |b, spec| {
            b.iter(|| {
                spec.stream()
                    .take(REFS)
                    .map(|a| a.addr().get())
                    .sum::<u64>()
            })
        });
    }
    group.finish();
}

fn bench_mix(c: &mut Criterion) {
    let mut group = c.benchmark_group("mix");
    group.throughput(Throughput::Elements(REFS as u64));
    group.bench_function("z8000_assorted_round_robin", |b| {
        let (_, members) = catalog::table3_mixes()
            .into_iter()
            .find(|(n, _)| n.starts_with("Z8000"))
            .expect("mix exists");
        b.iter(|| {
            let streams: Vec<_> = members.iter().map(|p| p.generator()).collect();
            RoundRobinMix::new(streams, 20_000)
                .take(REFS)
                .map(|a| a.addr().get())
                .sum::<u64>()
        })
    });
    group.finish();
}

fn bench_characterizer(c: &mut Criterion) {
    let trace = catalog::by_name("VCCOM").expect("catalog trace").generate(REFS);
    let mut group = c.benchmark_group("characterize");
    group.throughput(Throughput::Elements(REFS as u64));
    group.bench_function("table2_columns", |b| {
        b.iter(|| {
            let mut ch = TraceCharacterizer::new();
            for access in &trace {
                ch.observe(*access);
            }
            ch.finish().address_space_bytes()
        })
    });
    group.finish();
}

fn bench_adapters(c: &mut Criterion) {
    use smith85_synth::perturb::WithInterrupts;
    use smith85_trace::interface::InterfaceAdapter;
    use smith85_trace::InterfaceSpec;
    let spec = catalog::by_name("VCCOM").expect("catalog trace");
    let mut group = c.benchmark_group("adapters");
    group.throughput(Throughput::Elements(REFS as u64));
    group.bench_function("interface_8b_remembering", |b| {
        b.iter(|| {
            InterfaceAdapter::new(spec.stream().take(REFS), InterfaceSpec::new(8, true))
                .map(|a| a.addr().get())
                .sum::<u64>()
        })
    });
    group.bench_function("with_interrupts", |b| {
        b.iter(|| {
            WithInterrupts::new(spec.stream(), 5_000.0, 400.0, 1)
                .take(REFS)
                .map(|a| a.addr().get())
                .sum::<u64>()
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_generation, bench_mix, bench_characterizer, bench_adapters
}
criterion_main!(benches);
