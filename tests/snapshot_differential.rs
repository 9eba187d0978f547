//! Differential test for the snapshot cold-start path: an engine restored
//! from a binary snapshot must answer S1–S3 workload queries *identically*
//! to the engine built the expensive way — text triples parsed from disk —
//! across UIS, UIS\*, INS and Auto, both sequentially and on eight
//! concurrent sessions. Plus the matrix's negative control: every serving
//! form that flips one answer fails it.

use kgreach::{LocalIndexConfig, QueryOptions, SubstructureConstraint};
use kgreach_integration::matrix::Form::*;
use kgreach_integration::matrix::{
    all_pairs, random_batches, s1_s3, Form, Matrix, Run, ALGORITHMS,
};
use kgreach_integration::{random_typed_graph, small_lubm};
use std::panic::{catch_unwind, AssertUnwindSafe};

#[test]
fn snapshot_engine_matches_text_engine_on_s1_s3_workloads() {
    let index = LocalIndexConfig { num_landmarks: Some(24), seed: 9, ..Default::default() };
    let m = Matrix::new(small_lubm(77), Vec::new(), index);
    m.live.local_index(); // the snapshot must bring it back loaded
    let queries = s1_s3(&m.graph, 6, |i| 0xD1FF + i);
    let runs = Run::each(&ALGORITHMS, &QueryOptions::default(), false);
    m.run(&queries, &runs, &[Text, Snapshot, Batch8], |_, _| {});
}

/// One answer flipped by any serving form fails the matrix; the same cases
/// unflipped pass in every form.
#[test]
fn every_form_that_flips_one_answer_fails_the_matrix() {
    let matrix = || {
        let index = LocalIndexConfig { num_landmarks: Some(3), seed: 3, ..Default::default() };
        Matrix::new(random_typed_graph(10, 20, 3, 2, 3), random_batches(3, 3), index)
    };
    let m = matrix();
    let c = SubstructureConstraint::parse("SELECT ?x WHERE { ?x <rdf:type> <C0> . }").unwrap();
    let queries = all_pairs(&m.graph, &[m.graph.all_labels()], &c);
    let runs = Run::each(&ALGORITHMS[..3], &QueryOptions::default(), false);
    let forms: [Form; 9] = [Kernels, Engine, Text, Snapshot, Overlay, Wal, Wire, WireBatch, Batch8];
    m.run(&queries, &runs, &forms, |_, _| {});
    for form in forms {
        let flipped = matrix().flipping(form);
        let run =
            catch_unwind(AssertUnwindSafe(|| flipped.run(&queries, &runs, &[form], |_, _| {})));
        assert!(run.is_err(), "{form:?} flipped an answer and the matrix passed");
    }
}
