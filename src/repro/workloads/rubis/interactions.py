"""RUBiS interactions (servlet version) as SQL templates.

The bidding mix of the paper (Table 1) features 80 % read-only interactions
(browse categories/regions, view items, view bid history, view user info)
and 20 % read-write interactions (register user, register item, store bid,
store buy-now, store comment).
"""

from __future__ import annotations

import random

READ_ONLY_INTERACTIONS = (
    "browse_categories",
    "browse_regions",
    "search_items_by_category",
    "search_items_by_region",
    "view_item",
    "view_user_info",
    "view_bid_history",
)

READ_WRITE_INTERACTIONS = (
    "register_user",
    "register_item",
    "store_bid",
    "store_buy_now",
    "store_comment",
)

#: every interaction :class:`RUBiSInteractions` can run, by name
INTERACTION_NAMES = READ_ONLY_INTERACTIONS + READ_WRITE_INTERACTIONS


class RUBiSInteractions:
    """Run RUBiS interactions against a DB-API connection."""

    def __init__(self, connection, users: int, items: int, seed: int = 11):
        self.connection = connection
        self.users = users
        self.items = items
        self.random = random.Random(seed)

    def run(self, name: str) -> int:
        return getattr(self, name)()

    def _user_id(self) -> int:
        return self.random.randint(1, self.users)

    def _item_id(self) -> int:
        return self.random.randint(1, self.items)

    # -- read-only ------------------------------------------------------------------

    def browse_categories(self) -> int:
        cursor = self.connection.cursor()
        cursor.execute("SELECT id, name FROM categories ORDER BY name")
        cursor.fetchall()
        return 1

    def browse_regions(self) -> int:
        cursor = self.connection.cursor()
        cursor.execute("SELECT id, name FROM regions ORDER BY name")
        cursor.fetchall()
        return 1

    def search_items_by_category(self) -> int:
        cursor = self.connection.cursor()
        cursor.execute(
            "SELECT id, name, initial_price, max_bid, nb_of_bids FROM items"
            " WHERE category = ? ORDER BY id LIMIT 25",
            (self.random.randint(1, 15),),
        )
        cursor.fetchall()
        return 1

    def search_items_by_region(self) -> int:
        cursor = self.connection.cursor()
        cursor.execute(
            "SELECT items.id, items.name, items.max_bid FROM items, users"
            " WHERE items.seller = users.id AND users.region = ? AND items.category = ?"
            " ORDER BY items.id LIMIT 25",
            (self.random.randint(1, 12), self.random.randint(1, 15)),
        )
        cursor.fetchall()
        return 1

    def view_item(self) -> int:
        cursor = self.connection.cursor()
        item = self._item_id()
        cursor.execute(
            "SELECT name, initial_price, max_bid, nb_of_bids, quantity, seller"
            " FROM items WHERE id = ?",
            (item,),
        )
        cursor.fetchall()
        cursor.execute(
            "SELECT MAX(bid) FROM bids WHERE item_id = ?", (item,)
        )
        cursor.fetchall()
        return 2

    def view_user_info(self) -> int:
        cursor = self.connection.cursor()
        user = self._user_id()
        cursor.execute(
            "SELECT nickname, rating, creation_date FROM users WHERE id = ?", (user,)
        )
        cursor.fetchall()
        cursor.execute(
            "SELECT comments.comment, comments.rating, users.nickname"
            " FROM comments, users WHERE comments.to_user_id = ?"
            " AND comments.from_user_id = users.id LIMIT 10",
            (user,),
        )
        cursor.fetchall()
        return 2

    def view_bid_history(self) -> int:
        cursor = self.connection.cursor()
        cursor.execute(
            "SELECT bids.bid, bids.date, users.nickname, items.name"
            " FROM bids, users, items"
            " WHERE bids.item_id = ? AND bids.user_id = users.id AND bids.item_id = items.id"
            " ORDER BY bids.bid DESC LIMIT 20",
            (self._item_id(),),
        )
        cursor.fetchall()
        return 1

    # -- read-write -------------------------------------------------------------------

    def register_user(self) -> int:
        connection = self.connection
        connection.begin()
        cursor = connection.cursor()
        new_id = self.users + self.random.randint(10 ** 6, 2 * 10 ** 6)
        cursor.execute("SELECT id FROM users WHERE nickname = ?", (f"nick{new_id}",))
        cursor.fetchall()
        cursor.execute(
            "INSERT INTO users (id, firstname, lastname, nickname, password, email,"
            " rating, balance, region) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (new_id, "New", "User", f"nick{new_id}", "pw", f"u{new_id}@rubis.com", 0, 0.0, 1),
        )
        connection.commit()
        return 2

    def register_item(self) -> int:
        connection = self.connection
        connection.begin()
        cursor = connection.cursor()
        price = round(self.random.uniform(1, 100), 2)
        cursor.execute(
            "INSERT INTO items (name, description, initial_price, quantity, reserve_price,"
            " buy_now, nb_of_bids, max_bid, seller, category)"
            " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (
                "New item",
                "description",
                price,
                1,
                round(price * 1.2, 2),
                round(price * 2, 2),
                0,
                price,
                self._user_id(),
                self.random.randint(1, 15),
            ),
        )
        connection.commit()
        return 1

    def store_bid(self) -> int:
        connection = self.connection
        connection.begin()
        cursor = connection.cursor()
        item = self._item_id()
        cursor.execute("SELECT max_bid, nb_of_bids FROM items WHERE id = ?", (item,))
        row = cursor.fetchone()
        current = (row[0] if row and row[0] else 1.0) + self.random.uniform(0.5, 5.0)
        cursor.execute(
            "INSERT INTO bids (user_id, item_id, qty, bid, max_bid, date)"
            " VALUES (?, ?, ?, ?, ?, NOW())",
            (self._user_id(), item, 1, round(current, 2), round(current * 1.1, 2)),
        )
        cursor.execute(
            "UPDATE items SET max_bid = ?, nb_of_bids = nb_of_bids + 1 WHERE id = ?",
            (round(current, 2), item),
        )
        connection.commit()
        return 3

    def store_buy_now(self) -> int:
        connection = self.connection
        connection.begin()
        cursor = connection.cursor()
        item = self._item_id()
        cursor.execute("SELECT quantity FROM items WHERE id = ?", (item,))
        cursor.fetchall()
        cursor.execute(
            "INSERT INTO buy_now (buyer_id, item_id, qty, date) VALUES (?, ?, ?, NOW())",
            (self._user_id(), item, 1),
        )
        cursor.execute(
            "UPDATE items SET quantity = quantity - 1 WHERE id = ? AND quantity > 0",
            (item,),
        )
        connection.commit()
        return 3

    def store_comment(self) -> int:
        connection = self.connection
        connection.begin()
        cursor = connection.cursor()
        to_user = self._user_id()
        rating = self.random.randint(-5, 5)
        cursor.execute(
            "INSERT INTO comments (from_user_id, to_user_id, item_id, rating, date, comment)"
            " VALUES (?, ?, ?, ?, NOW(), ?)",
            (self._user_id(), to_user, self._item_id(), rating, "nice"),
        )
        cursor.execute(
            "UPDATE users SET rating = rating + ? WHERE id = ?", (rating, to_user)
        )
        connection.commit()
        return 2
