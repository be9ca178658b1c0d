//! The typed solver facade: variables, assertion, solving, models, MSS.

use crate::dpll::{self, Cnf, DpllStats, Lit};
use crate::formula::{Atom, Formula, VarId};
use acr_net_types::Prefix;
use std::collections::{BTreeMap, BTreeSet};

/// Variable definitions.
#[derive(Debug, Clone)]
enum VarDef {
    Bool { base: u32 },
    Int { base: u32, domain: Vec<i64> },
    PrefixSet { base: u32, universe: Vec<Prefix> },
}

/// A satisfying assignment, typed.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Model {
    pub bools: BTreeMap<VarId, bool>,
    pub ints: BTreeMap<VarId, i64>,
    pub sets: BTreeMap<VarId, BTreeSet<Prefix>>,
}

/// Aggregate statistics (exposed for the Figure 3 search-space study).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveStats {
    pub boolean_vars: usize,
    pub clauses: usize,
    pub decisions: u64,
    pub propagations: u64,
}

/// The finite-domain constraint solver.
#[derive(Debug, Clone, Default)]
pub struct Solver {
    vars: Vec<VarDef>,
    cnf: Cnf,
    stats: DpllStats,
}

impl Solver {
    /// A fresh, empty solver.
    pub fn new() -> Self {
        Solver::default()
    }

    /// Declares a boolean variable.
    pub fn new_bool(&mut self) -> VarId {
        let base = self.cnf.fresh();
        self.vars.push(VarDef::Bool { base });
        VarId(self.vars.len() as u32 - 1)
    }

    /// Declares an integer variable over an explicit finite domain.
    ///
    /// # Panics
    /// Panics on an empty domain.
    pub fn new_int(&mut self, domain: impl IntoIterator<Item = i64>) -> VarId {
        let mut domain: Vec<i64> = domain.into_iter().collect();
        domain.sort_unstable();
        domain.dedup();
        assert!(!domain.is_empty(), "integer domain must be non-empty");
        let base = self.cnf.num_vars;
        for _ in 0..domain.len() {
            self.cnf.fresh();
        }
        // Exactly-one: at least one …
        self.cnf.add(
            (0..domain.len())
                .map(|i| dpll::pos(base + i as u32))
                .collect(),
        );
        // … and pairwise at most one.
        for i in 0..domain.len() {
            for j in (i + 1)..domain.len() {
                self.cnf
                    .add(vec![dpll::neg(base + i as u32), dpll::neg(base + j as u32)]);
            }
        }
        self.vars.push(VarDef::Int { base, domain });
        VarId(self.vars.len() as u32 - 1)
    }

    /// Declares a prefix-set variable over an explicit finite universe.
    pub fn new_prefix_set(&mut self, universe: impl IntoIterator<Item = Prefix>) -> VarId {
        let mut universe: Vec<Prefix> = universe.into_iter().collect();
        universe.sort();
        universe.dedup();
        let base = self.cnf.num_vars;
        for _ in 0..universe.len() {
            self.cnf.fresh();
        }
        self.vars.push(VarDef::PrefixSet { base, universe });
        VarId(self.vars.len() as u32 - 1)
    }

    /// Number of free boolean variables in the grounding — the paper's
    /// Figure 3b measures AED's search space as `2^(free variables)`.
    pub fn boolean_var_count(&self) -> usize {
        self.cnf.num_vars as usize
    }

    /// Asserts a formula (hard constraint).
    pub fn assert(&mut self, f: Formula) {
        let lit = self.compile(&f);
        self.cnf.add(vec![lit]);
    }

    /// Tseitin-compiles a formula, returning a literal equivalent to it.
    fn compile(&mut self, f: &Formula) -> Lit {
        match f {
            Formula::True => {
                let v = self.cnf.fresh();
                self.cnf.add(vec![dpll::pos(v)]);
                dpll::pos(v)
            }
            Formula::False => {
                let v = self.cnf.fresh();
                self.cnf.add(vec![dpll::neg(v)]);
                dpll::pos(v)
            }
            Formula::Atom(a) => self.atom_lit(a),
            Formula::Not(inner) => dpll::negate(self.compile(inner)),
            Formula::And(fs) => {
                let lits: Vec<Lit> = fs.iter().map(|g| self.compile(g)).collect();
                let out = self.cnf.fresh();
                // out -> each lit
                for &l in &lits {
                    self.cnf.add(vec![dpll::neg(out), l]);
                }
                // all lits -> out
                let mut clause: Vec<Lit> = lits.iter().map(|&l| dpll::negate(l)).collect();
                clause.push(dpll::pos(out));
                self.cnf.add(clause);
                dpll::pos(out)
            }
            Formula::Or(fs) => {
                let lits: Vec<Lit> = fs.iter().map(|g| self.compile(g)).collect();
                let out = self.cnf.fresh();
                // each lit -> out
                for &l in &lits {
                    self.cnf.add(vec![dpll::negate(l), dpll::pos(out)]);
                }
                // out -> some lit
                let mut clause = lits;
                clause.push(dpll::neg(out));
                self.cnf.add(clause);
                dpll::pos(out)
            }
        }
    }

    /// The boolean literal of an atom. Out-of-domain atoms compile to a
    /// constant-false literal.
    fn atom_lit(&mut self, atom: &Atom) -> Lit {
        let false_lit = |cnf: &mut Cnf| {
            let v = cnf.fresh();
            cnf.add(vec![dpll::neg(v)]);
            dpll::pos(v)
        };
        match atom {
            Atom::Bool(v) => match &self.vars[v.0 as usize] {
                VarDef::Bool { base } => dpll::pos(*base),
                _ => panic!("{v} is not a boolean variable"),
            },
            Atom::IntEq(v, value) => match &self.vars[v.0 as usize] {
                VarDef::Int { base, domain } => match domain.iter().position(|d| d == value) {
                    Some(i) => dpll::pos(*base + i as u32),
                    None => false_lit(&mut self.cnf),
                },
                _ => panic!("{v} is not an integer variable"),
            },
            Atom::Member(v, p) => match &self.vars[v.0 as usize] {
                VarDef::PrefixSet { base, universe } => {
                    match universe.iter().position(|u| u == p) {
                        Some(i) => dpll::pos(*base + i as u32),
                        None => false_lit(&mut self.cnf),
                    }
                }
                _ => panic!("{v} is not a prefix-set variable"),
            },
        }
    }

    /// Solves the asserted constraints; `None` when unsatisfiable.
    pub fn solve(&mut self) -> Option<Model> {
        self.solve_with(&[])
    }

    fn solve_with(&mut self, assumptions: &[Lit]) -> Option<Model> {
        let assignment = dpll::solve(&self.cnf, assumptions, &mut self.stats)?;
        let mut model = Model::default();
        for (i, def) in self.vars.iter().enumerate() {
            let id = VarId(i as u32);
            match def {
                VarDef::Bool { base } => {
                    model.bools.insert(id, assignment[*base as usize]);
                }
                VarDef::Int { base, domain } => {
                    let pos = (0..domain.len())
                        .find(|&k| assignment[*base as usize + k])
                        .expect("exactly-one guarantees a value");
                    model.ints.insert(id, domain[pos]);
                }
                VarDef::PrefixSet { base, universe } => {
                    let set: BTreeSet<Prefix> = universe
                        .iter()
                        .enumerate()
                        .filter(|(k, _)| assignment[*base as usize + *k])
                        .map(|(_, p)| *p)
                        .collect();
                    model.sets.insert(id, set);
                }
            }
        }
        Some(model)
    }

    /// Grow-style **maximal satisfiable subset**: returns a model of the
    /// hard constraints plus a maximal set of the `soft` formulas
    /// (indices), or `None` when the hard constraints alone are unsat.
    /// The complement of the returned index set is a correction set —
    /// the CEL-style localization primitive.
    pub fn maximal_satisfiable_subset(&mut self, soft: &[Formula]) -> Option<(Model, Vec<usize>)> {
        // Compile each soft formula once; selectors are their literals.
        let lits: Vec<Lit> = soft.iter().map(|f| self.compile(f)).collect();
        // Hard constraints must hold on their own.
        self.solve_with(&[])?;
        let mut chosen: Vec<Lit> = Vec::new();
        let mut kept = Vec::new();
        for (i, &lit) in lits.iter().enumerate() {
            chosen.push(lit);
            if dpll::solve(&self.cnf, &chosen, &mut self.stats).is_none() {
                chosen.pop();
            } else {
                kept.push(i);
            }
        }
        let model = self.solve_with(&chosen).expect("grow kept it satisfiable");
        Some((model, kept))
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> SolveStats {
        SolveStats {
            boolean_vars: self.cnf.num_vars as usize,
            clauses: self.cnf.clauses.len(),
            decisions: self.stats.decisions,
            propagations: self.stats.propagations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    /// The paper's §5 worked example: solve P ∧ ¬F where
    /// P: 10.70/16 ∈ var ∧ 20.0/16 ∈ var and F: 10.0/16 ∈ var.
    #[test]
    fn worked_example_prefix_set() {
        let mut s = Solver::new();
        let var = s.new_prefix_set([p("10.70.0.0/16"), p("20.0.0.0/16"), p("10.0.0.0/16")]);
        s.assert(Formula::and([
            Formula::member(var, p("10.70.0.0/16")),
            Formula::member(var, p("20.0.0.0/16")),
            Formula::not(Formula::member(var, p("10.0.0.0/16"))),
        ]));
        let m = s.solve().expect("satisfiable");
        let set = &m.sets[&var];
        assert!(set.contains(&p("10.70.0.0/16")));
        assert!(set.contains(&p("20.0.0.0/16")));
        assert!(!set.contains(&p("10.0.0.0/16")));
    }

    #[test]
    fn conflicting_membership_is_unsat() {
        let mut s = Solver::new();
        let var = s.new_prefix_set([p("10.0.0.0/16")]);
        s.assert(Formula::member(var, p("10.0.0.0/16")));
        s.assert(Formula::not(Formula::member(var, p("10.0.0.0/16"))));
        assert!(s.solve().is_none());
    }

    #[test]
    fn out_of_universe_membership_is_false() {
        let mut s = Solver::new();
        let var = s.new_prefix_set([p("10.0.0.0/16")]);
        s.assert(Formula::not(Formula::member(var, p("99.0.0.0/8"))));
        assert!(s.solve().is_some());
        let mut s = Solver::new();
        let var = s.new_prefix_set([p("10.0.0.0/16")]);
        s.assert(Formula::member(var, p("99.0.0.0/8")));
        assert!(s.solve().is_none());
    }

    #[test]
    fn int_exactly_one_semantics() {
        let mut s = Solver::new();
        let v = s.new_int([100, 200, 300]);
        s.assert(Formula::not(Formula::int_eq(v, 100)));
        s.assert(Formula::not(Formula::int_eq(v, 300)));
        let m = s.solve().unwrap();
        assert_eq!(m.ints[&v], 200);
        s.assert(Formula::not(Formula::int_eq(v, 200)));
        assert!(s.solve().is_none(), "domain exhausted");
    }

    #[test]
    fn int_out_of_domain_eq_is_false() {
        let mut s = Solver::new();
        let v = s.new_int([1, 2]);
        s.assert(Formula::int_eq(v, 99));
        assert!(s.solve().is_none());
    }

    #[test]
    fn disjunction_over_theories() {
        let mut s = Solver::new();
        let b = s.new_bool();
        let v = s.new_int([7, 8]);
        s.assert(Formula::or([Formula::bool_true(b), Formula::int_eq(v, 7)]));
        s.assert(Formula::not(Formula::bool_true(b)));
        let m = s.solve().unwrap();
        assert!(!m.bools[&b]);
        assert_eq!(m.ints[&v], 7);
    }

    #[test]
    fn mss_grow_finds_maximal_subset() {
        let mut s = Solver::new();
        let a = s.new_bool();
        let b = s.new_bool();
        // Hard: a ∨ b. Softs: ¬a, ¬b, a — softs 0 and 2 conflict.
        s.assert(Formula::or([Formula::bool_true(a), Formula::bool_true(b)]));
        let softs = vec![
            Formula::not(Formula::bool_true(a)),
            Formula::not(Formula::bool_true(b)),
            Formula::bool_true(a),
        ];
        let (model, kept) = s.maximal_satisfiable_subset(&softs).unwrap();
        // Greedy grow keeps soft 0 (¬a), then soft 1 (¬b) conflicts with
        // the hard clause, then soft 2 conflicts with soft 0.
        assert_eq!(kept, vec![0]);
        assert!(!model.bools[&a] && model.bools[&b]);
    }

    #[test]
    fn mss_with_unsat_hards_is_none() {
        let mut s = Solver::new();
        let a = s.new_bool();
        s.assert(Formula::bool_true(a));
        s.assert(Formula::not(Formula::bool_true(a)));
        assert!(s.maximal_satisfiable_subset(&[Formula::True]).is_none());
    }

    #[test]
    fn stats_expose_grounding_size() {
        let mut s = Solver::new();
        let _ = s.new_prefix_set([p("10.0.0.0/16"), p("20.0.0.0/16")]);
        let _ = s.new_int([1, 2, 3]);
        let _ = s.new_bool();
        assert_eq!(s.boolean_var_count(), 2 + 3 + 1);
        assert!(s.stats().clauses >= 4, "exactly-one clauses present");
    }

    #[test]
    fn empty_prefix_set_universe_is_fine() {
        let mut s = Solver::new();
        let v = s.new_prefix_set([]);
        let m = s.solve().unwrap();
        assert!(m.sets[&v].is_empty());
    }
}
