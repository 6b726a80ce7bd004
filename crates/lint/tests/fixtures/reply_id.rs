// Fixture for rule `reply-id` (linted as crates/exp/src/service.rs).

struct Reply;
impl Reply {
    fn render(&self, _id: Option<&str>) -> String {
        String::new()
    }
    fn render_into(&self, _id: Option<&str>, _out: &mut String) {}
}

fn respond(reply: &Reply, id: Option<&str>) -> (String, String) {
    let with_id = reply.render(id);
    let without = reply.render(None);
    (with_id, without)
}

fn respond_into(reply: &Reply, id: Option<&str>, out: &mut String) {
    reply.render_into(id, out);
    reply.render_into(None, out);
}
