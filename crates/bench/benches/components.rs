//! Criterion microbenchmarks of the simulator's building blocks: BTB
//! lookups across organizations, cache accesses, direction predictors, and
//! the trace codec. These establish that paper-scale parameter sweeps are
//! computationally feasible (`fdip exp` and `exp_all` are the actual
//! table/figure generators).

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

use fdip_bpred::{Bimodal, DirectionPredictor, Gshare, Hybrid};
use fdip_btb::{
    BasicBlockBtb, Btb, BtbConfig, ConventionalBtb, PartitionConfig, PartitionedBtb, TagScheme,
};
use fdip_mem::{Cache, CacheGeometry, FillFlags, ReplacementPolicy};
use fdip_trace::gen::{GeneratorConfig, Profile};
use fdip_trace::{read_binary, write_binary};
use fdip_types::{Addr, BranchClass};

fn bench_btbs(c: &mut Criterion) {
    let mut group = c.benchmark_group("btb_lookup_install");
    group.throughput(Throughput::Elements(1));
    let pcs: Vec<Addr> = (0..4096u64).map(|i| Addr::from_inst_index(i * 7)).collect();

    let mut conventional = ConventionalBtb::new(BtbConfig::new(256, 8, TagScheme::Full));
    group.bench_function("conventional", |b| {
        let mut i = 0usize;
        b.iter(|| {
            let pc = pcs[i % pcs.len()];
            i += 1;
            conventional.install(pc, BranchClass::CondDirect, pc.add_insts(3));
            black_box(conventional.lookup(pc))
        });
    });

    let mut partitioned = PartitionedBtb::new(PartitionConfig::from_bb_entries(2048));
    group.bench_function("partitioned", |b| {
        let mut i = 0usize;
        b.iter(|| {
            let pc = pcs[i % pcs.len()];
            i += 1;
            partitioned.install(pc, BranchClass::CondDirect, pc.add_insts(3));
            black_box(partitioned.lookup(pc))
        });
    });

    let mut ftb = BasicBlockBtb::new(BtbConfig::new(256, 8, TagScheme::Full));
    group.bench_function("basic_block", |b| {
        let mut i = 0usize;
        b.iter(|| {
            let pc = pcs[i % pcs.len()];
            i += 1;
            ftb.install(pc, 6, BranchClass::CondDirect, pc.add_insts(9));
            black_box(ftb.lookup(pc))
        });
    });
    group.finish();
}

fn bench_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("cache");
    group.throughput(Throughput::Elements(1));
    let mut cache = Cache::new(
        CacheGeometry::from_capacity(16 * 1024, 2, 64),
        ReplacementPolicy::Lru,
    );
    group.bench_function("access_fill_mix", |b| {
        let mut i = 0u64;
        b.iter(|| {
            let addr = Addr::new((i * 192) % (1 << 20));
            i += 1;
            if cache.access(addr).is_none() {
                cache.fill(addr, FillFlags::default());
            }
            black_box(&cache);
        });
    });
    group.finish();
}

fn bench_predictors(c: &mut Criterion) {
    let mut group = c.benchmark_group("direction_predictors");
    group.throughput(Throughput::Elements(1));
    let predictors: Vec<(&str, Box<dyn DirectionPredictor>)> = vec![
        ("bimodal", Box::new(Bimodal::new(14))),
        ("gshare", Box::new(Gshare::new(14, 12))),
        ("hybrid", Box::new(Hybrid::new(14, 14, 12, 14))),
    ];
    for (name, mut p) in predictors {
        group.bench_function(name, |b| {
            let mut i = 0u64;
            b.iter(|| {
                let pc = Addr::from_inst_index(i % 509);
                let taken = !i.is_multiple_of(3);
                i += 1;
                let predicted = p.predict(pc);
                p.spec_update(pc, predicted);
                p.commit(pc, taken);
                black_box(predicted)
            });
        });
    }
    group.finish();
}

fn bench_trace(c: &mut Criterion) {
    let mut group = c.benchmark_group("trace");
    let trace = GeneratorConfig::profile(Profile::Client)
        .seed(1)
        .target_len(100_000)
        .generate();
    group.throughput(Throughput::Elements(trace.len() as u64));
    group.bench_function("generate_100k", |b| {
        b.iter(|| {
            black_box(
                GeneratorConfig::profile(Profile::Client)
                    .seed(1)
                    .target_len(100_000)
                    .generate(),
            )
        });
    });
    let mut encoded = Vec::new();
    write_binary(&mut encoded, &trace).unwrap();
    group.bench_function("binary_encode_100k", |b| {
        b.iter(|| {
            let mut buf = Vec::with_capacity(encoded.len());
            write_binary(&mut buf, &trace).unwrap();
            black_box(buf)
        });
    });
    group.bench_function("binary_decode_100k", |b| {
        b.iter(|| black_box(read_binary(&encoded[..]).unwrap()));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_btbs,
    bench_cache,
    bench_predictors,
    bench_trace
);
criterion_main!(benches);
