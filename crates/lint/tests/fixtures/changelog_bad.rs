// Fixture: changelog-coverage. Scanned under the pseudo-path
// `crates/cluster/src/cluster.rs`: `quiet_drain` mutates score-relevant
// state without reaching `changes.note`; the others are covered directly
// or by delegating to a logged helper.
impl Cluster {
    fn bring_up(&mut self, id: NodeId) {
        self.nodes[0].set_up(true);
        self.index.restore_node(&self.nodes[0]);
        self.changes.note(id.raw());
    }

    fn restore(&mut self, id: NodeId) {
        self.nodes[0].clear_eviction_history();
        self.bring_up(id);
    }

    fn quiet_drain(&mut self, id: NodeId) {
        self.nodes[0].set_draining(Some(SimTime::ZERO));
        self.index.remove_node(&self.nodes[0]);
    }

    fn audit(&self) -> usize {
        self.nodes.len()
    }
}
