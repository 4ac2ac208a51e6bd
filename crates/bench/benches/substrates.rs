//! Criterion microbenchmarks for the algorithmic substrates (DESIGN.md S1):
//! the building blocks whose costs dominate the paper's complexity bounds.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use krsp_flow::bellman_ford::bellman_ford;
use krsp_flow::dijkstra::dijkstra;
use krsp_flow::karp::min_mean_cycle;
use krsp_flow::{constrained_shortest_path, max_edge_disjoint_paths, min_cost_k_flow};
use krsp_gen::{gnm, Regime, WeightParams};
use krsp_graph::{DiGraph, EdgeId, NodeId};
use krsp_numeric::Lex2;
use rand::SeedableRng;
use rand_chacha::ChaCha20Rng;

fn graph(n: usize) -> DiGraph {
    let mut rng = ChaCha20Rng::seed_from_u64(42);
    gnm(n, n * 5, Regime::Uniform, WeightParams::default(), &mut rng)
}

fn bench_shortest_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("shortest_paths");
    for n in [64usize, 256, 1024] {
        let g = graph(n);
        group.bench_with_input(BenchmarkId::new("dijkstra", n), &g, |b, g| {
            b.iter(|| dijkstra(g, NodeId(0), |e| g.edge(e).cost))
        });
        group.bench_with_input(BenchmarkId::new("bellman_ford", n), &g, |b, g| {
            b.iter(|| bellman_ford(g, NodeId(0), |e| g.edge(e).cost))
        });
    }
    group.finish();
}

fn bench_flow(c: &mut Criterion) {
    let mut group = c.benchmark_group("flow");
    for n in [64usize, 256] {
        let g = graph(n);
        let t = NodeId((n - 1) as u32);
        group.bench_with_input(BenchmarkId::new("dinic_disjoint", n), &g, |b, g| {
            b.iter(|| max_edge_disjoint_paths(g, NodeId(0), t))
        });
        group.bench_with_input(BenchmarkId::new("edmonds_karp_disjoint", n), &g, |b, g| {
            b.iter(|| krsp_flow::max_edge_disjoint_paths_ek(g, NodeId(0), t))
        });
        group.bench_with_input(BenchmarkId::new("mcf_k2_lex_dijkstra", n), &g, |b, g| {
            b.iter(|| {
                min_cost_k_flow(g, NodeId(0), t, 2, |e: EdgeId| {
                    let r = g.edge(e);
                    Lex2::new(r.cost as i128, r.delay as i128)
                })
            })
        });
        group.bench_with_input(BenchmarkId::new("mcf_k2_lex_reference", n), &g, |b, g| {
            b.iter(|| {
                krsp_flow::reference::min_cost_k_flow(g, NodeId(0), t, 2, |e: EdgeId| {
                    let r = g.edge(e);
                    Lex2::new(r.cost as i128, r.delay as i128)
                })
            })
        });
        group.bench_with_input(BenchmarkId::new("yen_k8", n), &g, |b, g| {
            b.iter(|| krsp_flow::k_shortest_paths(g, NodeId(0), t, 8, |e| g.edge(e).cost))
        });
    }
    group.finish();
}

fn bench_cycles(c: &mut Criterion) {
    let mut group = c.benchmark_group("cycles");
    for n in [32usize, 128] {
        let g = graph(n);
        group.bench_with_input(BenchmarkId::new("karp_min_mean", n), &g, |b, g| {
            b.iter(|| min_mean_cycle(g, |e| g.edge(e).cost - 5))
        });
    }
    group.finish();
}

fn bench_csp(c: &mut Criterion) {
    let mut group = c.benchmark_group("restricted_shortest_path");
    for n in [32usize, 96] {
        let g = graph(n);
        let t = NodeId((n - 1) as u32);
        group.bench_with_input(BenchmarkId::new("exact_dp_D200", n), &g, |b, g| {
            b.iter(|| constrained_shortest_path(g, NodeId(0), t, black_box(200)))
        });
        group.bench_with_input(BenchmarkId::new("fptas_eps_half", n), &g, |b, g| {
            b.iter(|| krsp_flow::rsp_fptas(g, NodeId(0), t, black_box(200), 1, 2))
        });
    }
    group.finish();
}

fn bench_simplex(c: &mut Criterion) {
    use krsp_lp::{Model, Rat, Relation};
    let mut group = c.benchmark_group("simplex");
    for m in [10usize, 25, 50] {
        // Random-ish dense LP: min Σx, Ax ≥ b with A from the graph costs.
        let g = graph(m);
        group.bench_with_input(BenchmarkId::new("dense_rational", m), &m, |b, &m| {
            b.iter(|| {
                let mut model = Model::new();
                let vars: Vec<_> = (0..m).map(|_| model.add_var(Rat::ONE)).collect();
                for i in 0..m / 2 {
                    let terms: Vec<_> = vars
                        .iter()
                        .enumerate()
                        .map(|(j, &v)| {
                            let w = g
                                .edge(krsp_graph::EdgeId(((i * 7 + j) % g.edge_count()) as u32))
                                .cost;
                            (v, Rat::int(w as i128 % 5 + 1))
                        })
                        .collect();
                    model.add_constraint(terms, Relation::Ge, Rat::int((i as i128 % 7) + 1));
                }
                krsp_lp::solve(&model)
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_shortest_paths,
    bench_flow,
    bench_cycles,
    bench_csp,
    bench_simplex
);
criterion_main!(benches);
