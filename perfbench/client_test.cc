// The benchmark's protocol client against an in-process serve::Server.
#include <gtest/gtest.h>

#include "client.h"
#include "eval/experiment.h"
#include "serve/server.h"

namespace perfbench {
namespace {

/// A server over a small dirty KG: its first published generation still
/// has violations, so `detect` lists several rules.
class ClientTest : public ::testing::Test {
 protected:
  void SetUp() override {
    grepair::KgOptions g;
    g.num_persons = 200;
    g.num_cities = 20;
    g.num_countries = 5;
    g.num_orgs = 20;
    auto bundle = grepair::MakeKgBundle(g, grepair::InjectOptions{});
    ASSERT_TRUE(bundle.ok());
    grepair::ServeOptions so;
    so.num_threads = 2;
    so.listen_port = 0;
    so.max_fixes_per_batch = 1;  // leaves a backlog for `violations` to page
    service_ = std::make_unique<grepair::RepairService>(
        std::move(bundle.value().graph), std::move(bundle.value().rules), so);
    server_ = std::make_unique<grepair::serve::Server>(service_.get());
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_EQ(client_.Connect(server_->port()), "");
  }
  void TearDown() override {
    client_.Close();
    if (server_) server_->Stop();
  }

  std::unique_ptr<grepair::RepairService> service_;
  std::unique_ptr<grepair::serve::Server> server_;
  Client client_;
};

TEST_F(ClientTest, GreetingIsTwoLinesEndingWithServing) {
  ASSERT_EQ(client_.greeting().size(), 2u);
  EXPECT_EQ(client_.greeting()[1].rfind("serving ", 0), 0u);
}

TEST_F(ClientTest, ShapeFollowsTheVerb) {
  EXPECT_EQ(ShapeOf("detect"), ReplyShape::kDetect);
  EXPECT_EQ(ShapeOf("detect one_birthplace"), ReplyShape::kDetect);
  EXPECT_EQ(ShapeOf("violations 0 100"), ReplyShape::kViolations);
  EXPECT_EQ(ShapeOf("commit"), ReplyShape::kOneLine);
  EXPECT_EQ(ShapeOf("add_node Org"), ReplyShape::kOneLine);
}

TEST_F(ClientTest, DetectListsOnlyRulesWithViolationsAndFramesExactly) {
  const Reply r = client_.Call("detect");
  ASSERT_TRUE(r.ok()) << r.error;
  const size_t total = std::stoul(r.lines[0]);
  ASSERT_GT(total, 0u);
  size_t sum = 0;
  for (size_t i = 1; i < r.lines.size(); ++i)
    sum += std::stoul(r.lines[i].substr(r.lines[i].find_last_of(' ') + 1));
  EXPECT_EQ(sum, total);
  // The reply ended where the client stopped reading: the next request's
  // reply is not mistaken for a detect row.
  const Reply next = client_.Call("add_node Org");
  ASSERT_TRUE(next.ok()) << next.error;
  EXPECT_EQ(next.lines, std::vector<std::string>{"staged 1"});
}

TEST_F(ClientTest, ViolationsReadsReturnedRows) {
  // Three junk Orgs, one fix per batch: two stay in the published backlog.
  ASSERT_TRUE(client_.Send("add_node Org\nadd_node Org\nadd_node Org\n"
                           "commit\n"));
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(client_.Read(ReplyShape::kOneLine).ok());
  const Reply commit = client_.Read(ReplyShape::kOneLine);
  ASSERT_TRUE(commit.ok()) << commit.error;
  double ms = -1;
  EXPECT_TRUE(ReplyField(commit.lines[0], "ms", &ms));
  EXPECT_GE(ms, 0.0);

  const Reply r = client_.Call("violations 0 100");
  ASSERT_TRUE(r.ok()) << r.error;
  ViolationsHeader h;
  ASSERT_TRUE(ParseViolationsHeader(r.lines[0], &h));
  EXPECT_EQ(h.batch, 1u);
  EXPECT_GT(h.returned, 0u);
  EXPECT_EQ(r.lines.size(), 1 + h.returned);
  const Reply one = client_.Call("violations 0 1");
  ASSERT_TRUE(one.ok()) << one.error;
  EXPECT_EQ(one.lines.size(), 2u);
}

TEST_F(ClientTest, ErrorsAndRejectedOpsFail) {
  EXPECT_EQ(client_.Call("no_such_verb").error.rfind("err unknown_verb", 0),
            0u);
  ASSERT_TRUE(client_.Call("add_edge 4000000000 1 knows").ok());  // staged
  const Reply commit = client_.Call("commit");
  EXPECT_FALSE(commit.ok());
  EXPECT_NE(commit.error.find("op_errors=1"), std::string::npos);
}

TEST_F(ClientTest, MissingReplyFails) {
  server_->Stop();
  const Reply r = client_.Call("commit");
  EXPECT_FALSE(r.ok());
}

}  // namespace
}  // namespace perfbench
