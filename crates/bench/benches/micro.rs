//! Micro-benchmarks of the substrates the simulation is built on.

use bytes::Bytes;
use canary_kvstore::{ReplicatedKv, StoreConfig};
use canary_sim::{EventQueue, SimRng, SimTime};
use canary_workloads::{
    kernels::compression::{rle_compress, rle_decompress},
    BfsKernel, CompressionKernel, Resumable, TrainingKernel,
};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

fn bench_event_queue(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_queue");
    group.throughput(Throughput::Elements(10_000));
    group.bench_function("push_pop_10k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            let mut rng = SimRng::seed_from_u64(1);
            for i in 0..10_000u64 {
                q.push(SimTime::from_micros(rng.u64_below(1_000_000)), i);
            }
            let mut acc = 0u64;
            while let Some((_, v)) = q.pop() {
                acc = acc.wrapping_add(v);
            }
            black_box(acc)
        })
    });
    group.finish();
}

fn bench_rng(c: &mut Criterion) {
    let mut group = c.benchmark_group("rng");
    group.throughput(Throughput::Elements(100_000));
    group.bench_function("xoshiro_100k", |b| {
        let mut rng = SimRng::seed_from_u64(7);
        b.iter(|| {
            let mut acc = 0u64;
            for _ in 0..100_000 {
                acc = acc.wrapping_add(rng.next_u64());
            }
            black_box(acc)
        })
    });
    group.bench_function("bernoulli_100k", |b| {
        let mut rng = SimRng::seed_from_u64(7);
        b.iter(|| {
            let mut hits = 0u32;
            for _ in 0..100_000 {
                hits += rng.bernoulli(0.15) as u32;
            }
            black_box(hits)
        })
    });
    group.finish();
}

fn bench_kvstore(c: &mut Criterion) {
    let mut group = c.benchmark_group("kvstore");
    group.throughput(Throughput::Elements(10_000));
    group.bench_function("put_get_10k", |b| {
        b.iter(|| {
            let store = ReplicatedKv::new(1, StoreConfig::default());
            for i in 0..10_000u32 {
                let key = format!("fn{}/ckpt/{}", i % 100, i);
                store.put(&key, Bytes::from(vec![0u8; 64])).unwrap();
            }
            black_box(store.len())
        })
    });
    group.bench_function("replicated_put_3_members_1k", |b| {
        b.iter(|| {
            let kv = ReplicatedKv::new(3, StoreConfig::default());
            for i in 0..1_000u32 {
                kv.put(format!("k{i}"), Bytes::from(vec![0u8; 256]))
                    .unwrap();
            }
            black_box(kv.len())
        })
    });
    group.finish();
}

fn bench_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernels");

    let data = CompressionKernel::new(1, 256 * 1024, 3).generate_file(0);
    group.throughput(Throughput::Bytes(data.len() as u64));
    group.bench_function("rle_compress_256k", |b| {
        b.iter(|| black_box(rle_compress(black_box(&data))))
    });
    let compressed = rle_compress(&data);
    group.bench_function("rle_decompress_256k", |b| {
        b.iter(|| black_box(rle_decompress(black_box(&compressed)).unwrap()))
    });

    group.throughput(Throughput::Elements(1_000_000));
    group.bench_function("bfs_1m_vertices", |b| {
        let kernel = BfsKernel::new(1_000_000, 1_000_000);
        b.iter(|| {
            let mut st = kernel.init();
            kernel.run_to_completion(&mut st)
        })
    });

    group.throughput(Throughput::Elements(1));
    group.bench_function("sgd_epoch", |b| {
        let kernel = TrainingKernel {
            features: 32,
            examples: 512,
            batch: 32,
            epochs: 1,
            lr: 0.05,
            seed: 1,
        };
        b.iter(|| {
            let mut st = kernel.init();
            kernel.step(&mut st);
            black_box(st.loss)
        })
    });

    group.bench_function("checkpoint_encode_decode", |b| {
        let kernel = TrainingKernel::default();
        let mut st = kernel.init();
        kernel.step(&mut st);
        b.iter(|| {
            let bytes = kernel.encode(black_box(&st));
            black_box(kernel.decode(&bytes).unwrap())
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_rng,
    bench_kvstore,
    bench_kernels
);
criterion_main!(benches);
