"""Distribution platforms, news rooms, and the editing workflow (§V).

The paper's two-layer trust design:

- a verified **publisher** founds a *distribution platform* (itself
  subject to a crowd-review smart contract before it is trusted);
- the platform opens topic-scoped *news rooms* and authenticates
  journalists to write in them (the *editing platform*);
- an article moves through the news-production workflow — the paper's
  8 steps compressed to the states that gate publication:
  ``draft -> in_review -> published`` (or ``rejected``).

The distribution platform answers for its creators; the editing
platform answers for its content.  Both responsibilities are encoded as
contract checks, so violating them is impossible rather than impolite.
"""

from __future__ import annotations

from repro.chain.contracts import Contract, ContractContext, contract_method
from repro.core.identity import identity_key

__all__ = ["NewsRoomContract", "platform_key", "room_key", "article_key", "ARTICLE_STATES"]

ARTICLE_STATES = ("draft", "in_review", "published", "rejected")


def platform_key(name: str) -> str:
    return f"platform:{name}"


def room_key(platform: str, room: str) -> str:
    return f"room:{platform}/{room}"


def member_key(platform: str, address: str) -> str:
    return f"member:{platform}:{address}"


def article_key(article_id: str) -> str:
    return f"article:{article_id}"


class NewsRoomContract(Contract):
    """Platforms, rooms, journalist membership, and article workflow."""

    name = "newsroom"

    # -- distribution platforms ---------------------------------------------

    @contract_method
    def create_platform(self, ctx: ContractContext, platform_name: str):
        """Found a distribution platform (verified publishers only)."""
        caller = ctx.get(identity_key(ctx.caller))
        ctx.require(
            caller is not None and caller["verified"],
            "only verified identities may found platforms",
        )
        ctx.require(
            caller["role"] in ("publisher", "journalist"),
            f"role {caller['role']!r} may not found a distribution platform",
        )
        key = platform_key(platform_name)
        ctx.require(ctx.get(key) is None, f"platform {platform_name!r} already exists")
        record = {
            "name": platform_name,
            "owner": ctx.caller,
            "created_at": ctx.timestamp,
        }
        ctx.put(key, record)
        # The founder is automatically an authenticated member.
        ctx.put(member_key(platform_name, ctx.caller), {"role": "owner", "since": ctx.timestamp})
        ctx.emit("platform-created", platform=platform_name, owner=ctx.caller)
        return record

    @contract_method
    def authenticate_journalist(self, ctx: ContractContext, platform_name: str, address: str):
        """Platform owner admits a verified journalist to its editing
        platform — the 'distribution platform is responsible for the
        trust of its content creators' half of the design."""
        platform = ctx.get(platform_key(platform_name))
        ctx.require(platform is not None, f"no platform {platform_name!r}")
        ctx.require(ctx.caller == platform["owner"], "only the platform owner may authenticate members")
        member = ctx.get(identity_key(address))
        ctx.require(
            member is not None and member["verified"],
            "journalists must hold verified identities",
        )
        key = member_key(platform_name, address)
        ctx.require(ctx.get(key) is None, "already a member")
        ctx.put(key, {"role": "journalist", "since": ctx.timestamp})
        ctx.emit("journalist-authenticated", platform=platform_name, address=address)
        return True

    # -- news rooms -------------------------------------------------------------

    @contract_method
    def create_room(self, ctx: ContractContext, platform_name: str, room_name: str, topic: str):
        """Open a topic-scoped news room under a platform."""
        platform = ctx.get(platform_key(platform_name))
        ctx.require(platform is not None, f"no platform {platform_name!r}")
        ctx.require(ctx.caller == platform["owner"], "only the platform owner may open rooms")
        key = room_key(platform_name, room_name)
        ctx.require(ctx.get(key) is None, f"room {room_name!r} already exists on {platform_name!r}")
        record = {
            "platform": platform_name,
            "room": room_name,
            "topic": topic,
            "created_at": ctx.timestamp,
        }
        ctx.put(key, record)
        ctx.emit("room-created", platform=platform_name, room=room_name, topic=topic)
        return record

    # -- article workflow ----------------------------------------------------------

    @contract_method
    def submit_draft(
        self,
        ctx: ContractContext,
        article_id: str,
        platform_name: str,
        room_name: str,
        content_hash: str,
    ):
        """A member journalist submits a draft into a room."""
        ctx.require(ctx.get(room_key(platform_name, room_name)) is not None, "no such room")
        membership = ctx.get(member_key(platform_name, ctx.caller))
        ctx.require(membership is not None, "caller is not authenticated on this platform")
        # Management Act enforcement: suspended accounts cannot publish.
        ctx.require(
            not ctx.get(f"suspended:{ctx.caller}"),
            "caller is suspended under the Platform Management Act",
        )
        key = article_key(article_id)
        ctx.require(ctx.get(key) is None, f"article {article_id} already exists")
        record = {
            "article_id": article_id,
            "platform": platform_name,
            "room": room_name,
            "author": ctx.caller,
            "content_hash": content_hash,
            "state": "draft",
            "submitted_at": ctx.timestamp,
            "published_at": None,
        }
        ctx.put(key, record)
        ctx.emit(
            "draft-submitted", article_id=article_id, platform=platform_name,
            room=room_name, author=ctx.caller,
        )
        return record

    @contract_method
    def start_review(self, ctx: ContractContext, article_id: str):
        """Author sends the draft to editorial review."""
        record = self._article_in_state(ctx, article_id, "draft")
        ctx.require(ctx.caller == record["author"], "only the author may submit for review")
        record["state"] = "in_review"
        ctx.put(article_key(article_id), record)
        ctx.emit("review-started", article_id=article_id)
        return record

    @contract_method
    def publish(self, ctx: ContractContext, article_id: str):
        """Platform owner (editor) publishes a reviewed article."""
        record = self._article_in_state(ctx, article_id, "in_review")
        platform = ctx.get(platform_key(record["platform"]))
        ctx.require(ctx.caller == platform["owner"], "only the platform owner may publish")
        record["state"] = "published"
        record["published_at"] = ctx.timestamp
        ctx.put(article_key(article_id), record)
        ctx.emit("article-published", article_id=article_id, room=record["room"])
        return record

    @contract_method
    def reject(self, ctx: ContractContext, article_id: str, reason: str):
        """Platform owner rejects a reviewed article, with the reason on
        the ledger — transparency of editorial decisions."""
        record = self._article_in_state(ctx, article_id, "in_review")
        platform = ctx.get(platform_key(record["platform"]))
        ctx.require(ctx.caller == platform["owner"], "only the platform owner may reject")
        record["state"] = "rejected"
        ctx.put(article_key(article_id), record)
        ctx.emit("article-rejected", article_id=article_id, reason=reason)
        return record

    @contract_method
    def get_article(self, ctx: ContractContext, article_id: str):
        return ctx.get(article_key(article_id))

    # -- comments (§V: "Identification verified persons can also create
    # contents and make comments on the posted news in the news rooms") --

    @contract_method
    def comment(self, ctx: ContractContext, article_id: str, comment_id: str, content_hash: str):
        """Attach a signed comment to a *published* article.

        A ``comment_id`` holding ``:`` is refused: the key
        ``comment:<article>:<comment>`` would otherwise name a comment on
        another article (``b:c`` on ``a`` and ``c`` on ``a:b`` are one key).
        """
        ctx.require(":" not in comment_id, f"comment id {comment_id!r} may not contain ':'")
        caller = ctx.get(identity_key(ctx.caller))
        ctx.require(
            caller is not None and caller["verified"],
            "only verified identities may comment",
        )
        article = ctx.get(article_key(article_id))
        ctx.require(article is not None, f"no article {article_id}")
        ctx.require(article["state"] == "published", "comments allowed on published articles only")
        key = f"comment:{article_id}:{comment_id}"
        ctx.require(ctx.get(key) is None, f"comment {comment_id} already exists")
        record = {
            "article_id": article_id,
            "comment_id": comment_id,
            "author": ctx.caller,
            "content_hash": content_hash,
            "posted_at": ctx.timestamp,
        }
        ctx.put(key, record)
        ctx.emit("comment-posted", article_id=article_id, comment_id=comment_id)
        return record

    @contract_method
    def list_comments(self, ctx: ContractContext, article_id: str):
        """Comment records for an article, in key order: those of the key
        range ``comment:<id>:`` that name *article_id* (the range also holds
        an article ``<id>:...``'s comments)."""
        records = (ctx.get(key) for key in ctx.keys_with_prefix(f"comment:{article_id}:"))
        return [comment for comment in records if comment["article_id"] == article_id]

    # -- internals --------------------------------------------------------------------

    def _article_in_state(self, ctx: ContractContext, article_id: str, state: str) -> dict:
        record = ctx.get(article_key(article_id))
        ctx.require(record is not None, f"no article {article_id}")
        ctx.require(
            record["state"] == state,
            f"article {article_id} is {record['state']!r}, expected {state!r}",
        )
        return record
