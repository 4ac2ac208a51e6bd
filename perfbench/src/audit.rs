//! Release-mode audit of every answer, written from the problem statement
//! rather than the program's own verifier, and run outside the timed span.

use crate::workload::Case;
use krsp_service::Guarantee;

/// What an answer claims, in the form both in-process and wire replies give it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Answer {
    /// Edge ids of the path system.
    pub edges: Vec<u32>,
    /// Reported total cost.
    pub cost: i64,
    /// Reported total delay.
    pub delay: i64,
    /// The answering rung's advertised guarantee.
    pub guarantee: Guarantee,
}

/// Checks `answer` against `case`:
/// * its edges form `k` edge-disjoint simple `s–t` paths and nothing else
///   (distinct in-range ids, unit flow conservation with `k` units out of
///   `s` and into `t`, and no directed cycle among them);
/// * the reported cost and delay equal the recomputed ones;
/// * `delay ≤ delay_factor · D`;
/// * when a cost factor is certified, `cost ≤ cost_factor ·` the case's
///   cost reference, compared exactly.
///
/// # Errors
/// The first violation found, as text.
pub fn audit(case: &Case, answer: &Answer) -> Result<(), String> {
    let inst = &case.inst;
    let graph = &inst.graph;
    let (n, m) = (graph.node_count(), graph.edge_count());
    let mut seen = vec![false; m];
    let mut balance = vec![0i64; n];
    let mut indegree = vec![0usize; n];
    let mut out: Vec<Vec<usize>> = vec![Vec::new(); n];
    let (mut cost, mut delay) = (0i64, 0i64);
    for &e in &answer.edges {
        let i = e as usize;
        if i >= m {
            return Err(format!("edge {e} out of range (m = {m})"));
        }
        if std::mem::replace(&mut seen[i], true) {
            return Err(format!("edge {e} used twice"));
        }
        let edge = graph.edge(krsp_graph::EdgeId(e));
        let (src, dst) = (edge.src.0 as usize, edge.dst.0 as usize);
        balance[src] += 1;
        balance[dst] -= 1;
        indegree[dst] += 1;
        out[src].push(dst);
        cost += edge.cost;
        delay += edge.delay;
    }
    let k = inst.k as i64;
    let (s, t) = (inst.s.0 as usize, inst.t.0 as usize);
    for (v, &b) in balance.iter().enumerate() {
        let want = if v == s {
            k
        } else if v == t {
            -k
        } else {
            0
        };
        if b != want {
            return Err(format!("node {v} has net outflow {b}, want {want}"));
        }
    }
    // Kahn's algorithm: an edge on a directed cycle is never removed.
    let mut queue: Vec<usize> = (0..n).filter(|&v| indegree[v] == 0).collect();
    let mut removed = 0;
    while let Some(v) = queue.pop() {
        for &w in &out[v] {
            removed += 1;
            indegree[w] -= 1;
            if indegree[w] == 0 {
                queue.push(w);
            }
        }
    }
    if removed != answer.edges.len() {
        return Err("the edges contain a directed cycle".to_string());
    }
    if cost != answer.cost || delay != answer.delay {
        return Err(format!(
            "reported (cost {}, delay {}) but the edges give (cost {cost}, delay {delay})",
            answer.cost, answer.delay
        ));
    }
    let delay_cap = i128::from(answer.guarantee.delay_factor) * i128::from(inst.delay_bound);
    if i128::from(delay) > delay_cap {
        return Err(format!(
            "delay {delay} exceeds {}·D = {delay_cap}",
            answer.guarantee.delay_factor
        ));
    }
    if let Some(factor) = answer.guarantee.cost_factor {
        let (num, den) = case.cost_reference;
        // cost ≤ factor · num/den, with den > 0.
        if i128::from(cost) * den > i128::from(factor) * num {
            return Err(format!(
                "cost {cost} exceeds {factor} × reference {num}/{den}"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Spec;
    use krsp_service::{Request, Service, ServiceConfig};

    fn solved_case(workload: &str, seed: u64) -> (Case, Answer) {
        let spec = Spec::named(workload).expect("known workload").smoke();
        let case = spec.cases(seed, 0..1, 1).remove(0);
        let svc = Service::new(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        let r = svc
            .provision(Request {
                instance: case.inst.clone(),
                deadline: None,
                kernel: None,
            })
            .expect("a generated instance is answered");
        let answer = Answer {
            edges: r.solution.edges.iter().map(|e| e.0).collect(),
            cost: r.solution.cost,
            delay: r.solution.delay,
            guarantee: r.guarantee,
        };
        (case, answer)
    }

    #[test]
    fn service_answers_pass_the_audit() {
        for workload in ["rsp_cold", "krsp_cold", "deadline_tail"] {
            let (case, answer) = solved_case(workload, 3);
            assert_eq!(audit(&case, &answer), Ok(()), "{workload}");
        }
    }

    #[test]
    fn one_flipped_edge_is_rejected() {
        for workload in ["rsp_cold", "krsp_cold"] {
            let (case, answer) = solved_case(workload, 5);
            let m = case.inst.graph.edge_count() as u32;
            // Every single-edge flip: dropping a used edge or adding an
            // unused one.
            for e in 0..m {
                let mut flipped = answer.clone();
                match flipped.edges.iter().position(|&x| x == e) {
                    Some(at) => {
                        flipped.edges.remove(at);
                    }
                    None => flipped.edges.push(e),
                }
                assert!(
                    audit(&case, &flipped).is_err(),
                    "{workload}: flip of edge {e} passed"
                );
            }
        }
    }

    #[test]
    fn misreported_totals_and_broken_guarantees_are_rejected() {
        let (case, answer) = solved_case("krsp_cold", 7);
        let mut wrong_cost = answer.clone();
        wrong_cost.cost += 1;
        assert!(audit(&case, &wrong_cost).is_err());
        let mut tight = case.clone();
        tight.inst.delay_bound = answer.delay - 1;
        assert!(audit(&tight, &answer).is_err());
        let mut cheap = case.clone();
        cheap.cost_reference = (i128::from(answer.cost) - 1, 2);
        assert!(audit(&cheap, &answer).is_err());
    }
}
